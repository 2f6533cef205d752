// mvbench: the end-to-end benchmark binary. Runs one workload against the
// public facades at default options and prints one line
//   MVBENCH_RESULT {json}
// holding the host stamp, check tallies, every end-to-end metric with its
// unit and every per-layer metric. run.py builds this binary, runs it and
// turns that line into the benchmark's result.
//
//   mvbench --workload ingest|history_reads|sharded_mixed --seed N
//           --seconds S --trace 0|1 --dir RUN_DIR [--wrong-model]
//           [--rounds N0,N1,...]
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

#ifndef MVBENCH_BUILD_TYPE
#define MVBENCH_BUILD_TYPE "unknown"
#endif

namespace mvbench {
namespace {

/// Median fdatasync of a 4 KiB overwrite in `dir`, microseconds.
double FdatasyncUs(const std::string& dir) {
  const std::string file = dir + "/fdatasync.probe";
  const int fd = ::open(file.c_str(), O_CREAT | O_RDWR | O_TRUNC, 0644);
  if (fd < 0) return -1;
  std::vector<double> us;
  char page[4096];
  memset(page, 'x', sizeof(page));
  for (int i = 0; i < 50; ++i) {
    if (::pwrite(fd, page, sizeof(page), 0) != static_cast<ssize_t>(sizeof(page))) break;
    const int64_t t0 = NowNs();
    if (::fdatasync(fd) != 0) break;
    us.push_back((NowNs() - t0) / 1e3);
  }
  ::close(fd);
  ::unlink(file.c_str());
  if (us.empty()) return -1;
  std::sort(us.begin(), us.end());
  return us[us.size() / 2];
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Div(double a, double b) { return b == 0 ? 0.0 : a / b; }

struct Named {
  std::string name;
  double value;
  std::string unit;
};

/// Per-layer metrics from the merged raw counts. Span-derived values are
/// zero on untraced runs; the counter-derived ones are real on both, so
/// a traced run can be compared against an untraced one of the same seed.
std::vector<Named> LayerMetrics(const Report& r) {
  auto R = [&](const std::string& n) { return r.raw(n); };
  auto mean = [&](const std::string& span, double scale) {
    return Div(R("span." + span + ".ns"), R("span." + span + ".count")) / scale;
  };
  auto self_mean = [&](const std::string& span) {
    return Div(R("span." + span + ".self_ns"), R("span." + span + ".count")) / 1e3;
  };
  const double gets = R("gets.current") + R("gets.asof");
  return {
      {"txn.serial_fallback_commits", R("txn.serial_fallback_commits"), "count"},
      {"txn.conflicts", R("txn.conflicts"), "count"},
      {"wal.appends", R("wal.appends"), "count"},
      {"wal.syncs", R("wal.syncs"), "count"},
      {"wal.commits_per_sync", Div(R("commits"), R("wal.syncs")), "ratio"},
      {"db.write.self_us", self_mean("db.write"), "us"},
      {"db.checkpoints", R("span.checkpoint.count"), "count"},
      {"db.checkpoint_ms", Div(R("span.checkpoint.ns"), R("span.checkpoint.count")) / 1e6, "ms"},
      {"recovery.frames", R("recovery.frames"), "count"},
      {"recovery.ops", R("recovery.ops"), "count"},
      {"recovery.us_per_frame", Div(R("recovery.us"), R("recovery.frames")), "us"},
      {"tsb.data_key_splits", R("tsb.data_key_splits"), "count"},
      {"tsb.data_time_splits", R("tsb.data_time_splits"), "count"},
      {"tsb.index_key_splits", R("tsb.index_key_splits"), "count"},
      {"tsb.index_time_splits", R("tsb.index_time_splits"), "count"},
      {"tsb.hist_data_nodes", R("tsb.hist_data_nodes"), "count"},
      {"tsb.records_migrated", R("tsb.records_migrated"), "count"},
      {"tsb.redundant_record_copies", R("tsb.redundant_record_copies"), "count"},
      {"tsb.stamp_descents_per_commit", Div(R("tsb.stamp_descents"), R("commits")), "ratio"},
      {"tsb.olc_restarts", R("tsb.olc_restarts"), "count"},
      {"pool.hit_ratio", Div(R("pool.hits"), R("pool.hits") + R("pool.misses")), "ratio"},
      {"pool.misses_per_get", Div(R("pool.misses"), gets), "ratio"},
      {"pool.evictions", R("pool.evictions"), "count"},
      {"pool.dirty_writebacks", R("pool.dirty_writebacks"), "count"},
      {"db.get_current.self_us", self_mean("db.get_current"), "us"},
      {"device.magnetic.reads", R("span.device.magnetic.read.count"), "count"},
      {"device.magnetic.read_us", mean("device.magnetic.read", 1e3), "us"},
      {"hist.cache_hit_ratio",
       Div(R("hist.cache_hits"), R("hist.cache_hits") + R("hist.cache_misses")), "ratio"},
      {"hist.blob_reads_per_get", Div(R("hist.blob_reads"), R("gets.asof")), "ratio"},
      {"hist.mapped_bytes", R("hist.mapped_bytes"), "bytes"},
      {"hist.copied_bytes", R("hist.copied_bytes"), "bytes"},
      {"hist.owned_decodes", R("hist.owned_decodes"), "count"},
      {"db.get_asof.self_us", self_mean("db.get_asof"), "us"},
      {"device.magnetic.write_bytes_per_user_byte",
       Div(R("span.device.magnetic.write.bytes"), R("user_bytes")), "ratio"},
      {"device.magnetic.sync_us", mean("device.magnetic.sync", 1e3), "us"},
      {"device.historical.write_bytes", R("span.device.historical.write.bytes"), "bytes"},
      {"cursor.next_ns", mean("cursor.next", 1), "ns"},
      {"cursor.next_version_ns", mean("cursor.next_version", 1), "ns"},
      {"shard.single_commit_p50_us", R("shard.single_commit_p50_us"), "us"},
      {"shard.multi_commit_p50_us", R("shard.multi_commit_p50_us"), "us"},
      {"shard.multi_shard_commits", R("shard.multi_shard_commits"), "count"},
      {"shard.commit_skew", R("shard.commit_skew"), "ratio"},
      {"commits", R("commits"), "count"},
  };
}

[[noreturn]] void Usage() {
  fprintf(stderr,
          "usage: mvbench --workload ingest|history_reads|sharded_mixed "
          "--seed N --seconds S --trace 0|1 --dir RUN_DIR [--wrong-model] "
          "[--rounds N0,N1,...]\n");
  exit(2);
}

}  // namespace
}  // namespace mvbench

int main(int argc, char** argv) {
  using namespace mvbench;
#ifndef NDEBUG
  fprintf(stderr, "mvbench: refusing to run a build with assertions on\n");
  return 2;
#endif
  if (strcmp(MVBENCH_BUILD_TYPE, "Release") != 0) {
    fprintf(stderr, "mvbench: refusing to run a %s build; build Release\n",
            MVBENCH_BUILD_TYPE);
    return 2;
  }
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    if (a == "--workload") {
      args.workload = next();
    } else if (a == "--seed") {
      args.seed = strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = atof(next().c_str());
    } else if (a == "--trace") {
      args.trace = next() == "1";
    } else if (a == "--dir") {
      args.dir = next();
    } else if (a == "--wrong-model") {
      args.wrong_model = true;
    } else if (a == "--rounds") {
      const std::string list = next();
      for (size_t pos = 0; pos < list.size();) {
        size_t end = list.find(',', pos);
        if (end == std::string::npos) end = list.size();
        args.rounds.push_back(strtoull(list.substr(pos, end - pos).c_str(), nullptr, 10));
        pos = end + 1;
      }
    } else {
      Usage();
    }
  }
  if (args.dir.empty() || !(args.seconds > 0)) Usage();
  void (*run)(const Args&, Report*) = nullptr;
  if (args.workload == "ingest") {
    run = RunIngest;
  } else if (args.workload == "history_reads") {
    run = RunHistoryReads;
  } else if (args.workload == "sharded_mixed") {
    run = RunShardedMixed;
  } else {
    Usage();
  }
  RemoveTree(args.dir);
  if (!MakeDirs(args.dir)) Die("cannot create " + args.dir);
  const double fdatasync_us = FdatasyncUs(args.dir);

  Report report;
  run(args, &report);
  if (args.trace && !AggregateSpans(args.dir, &report)) Die("cannot read spans");
  report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
  RemoveTree(args.dir);

  const bool correct = !report.checks.tallies().empty() && report.checks.all_passed();
  std::string out = "{";
  out += "\"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  out += ", \"host\": {\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + JsonString(__VERSION__) +
         ", \"build_type\": " + JsonString(MVBENCH_BUILD_TYPE) +
         ", \"fdatasync_us\": " + JsonNumber(fdatasync_us) + "}";
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"rounds\": [";
  for (int t = 0; report.raws().count("rounds." + std::to_string(t)) != 0; ++t) {
    out += (t == 0 ? "" : ", ") + JsonNumber(report.raw("rounds." + std::to_string(t)));
  }
  out += "], \"checks\": {";
  bool first = true;
  for (const auto& t : report.checks.tallies()) {
    out += (first ? "" : ", ") + JsonString(t.name) + ": [" +
           std::to_string(t.pass) + ", " + std::to_string(t.fail) + "]";
    first = false;
  }
  out += "}, \"failures\": [";
  first = true;
  for (const auto& s : report.checks.samples()) {
    out += (first ? "" : ", ") + JsonString(s);
    first = false;
  }
  out += "], \"metrics\": {";
  first = true;
  for (const auto& [name, m] : report.metrics()) {
    out += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
           JsonNumber(m.first) + ", \"unit\": " + JsonString(m.second) + "}";
    first = false;
  }
  out += "}, \"layers\": {";
  first = true;
  for (const Named& l : LayerMetrics(report)) {
    out += (first ? "" : ", ") + JsonString(l.name) + ": {\"value\": " +
           JsonNumber(l.value) + ", \"unit\": " + JsonString(l.unit) + "}";
    first = false;
  }
  out += "}}";
  printf("MVBENCH_RESULT %s\n", out.c_str());
  return 0;
}
