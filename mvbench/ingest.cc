// ingest: four writers commit small WriteBatches over keys each writer
// alone owns (no commit can conflict). Every key is preloaded during
// set-up, so each timed commit is an update that grows history. After the
// timed window the writers stop, an explicit checkpoint empties the log,
// one writer commits a fixed-length tail, and the writer process is
// SIGKILLed; the parent times the recovering Open and then reads back
// every acked version. Values are 160..240 bytes so the log passes the
// 8 MiB checkpoint threshold several times per run and data pages
// time-split and migrate. The kill leaves the OS page cache intact, so
// the checks cover process-crash durability only.
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace mvbench {
namespace {

using tsb::db::MultiVersionDB;
using tsb::db::ReadOptions;
using tsb::db::WriteBatch;

constexpr int kWriters = 4;
constexpr uint32_t kKeysPerWriter = 2048;
constexpr uint32_t kKeys = kWriters * kKeysPerWriter;
constexpr int kBatch = 4;
// setup_s is the median of this many preloads. A preload (~0.15 s) is one
// commit of every key: most of it is CPU, and few of its steps wait on the
// shared disk's fdatasyncs, whose latency swings between periods.
constexpr int kSetUps = 31;
constexpr int kTailCommits = 5000;
// The timed window is a fixed number of commits shared by the writers
// (they stop within one commit of each other), sized to last about
// --seconds on the reference machine (4 cores, ~80 us fdatasync): every
// run then builds the same history, so recovery, space and read-back
// figures do not drift with how fast the window happened to go.
constexpr double kCommitsPerWriterSecond = 850;
// The read-back after recovery runs on one client (concurrent readers are
// history_reads' job). Its scans are short and start at random keys: full
// scans of a current database this close to the pool's size fall off the
// LRU cliff on some seeds and not on others.
constexpr int kScans = 8192;
constexpr size_t kScanLength = 32;

size_t ValueLen(uint64_t seed, uint32_t key) {
  return 160 + Mix(seed, key, 0x1e) % 81;
}

/// One acked commit, as the writer process saw it.
struct Ack {
  uint64_t ts;
  uint32_t key[kBatch];
  uint32_t version[kBatch];
};

struct Version {
  Timestamp ts;
  uint32_t version;
};

/// Writer state: the versions its keys have reached, and its input stream.
struct Writer {
  explicit Writer(uint64_t seed, int w) : id(w), rng(Mix(seed, 0x100 + w)) {}
  int id;
  Rng rng;
  std::vector<uint32_t> versions = std::vector<uint32_t>(kKeysPerWriter, 0);

  /// Fills `batch` and `ack` with the next commit: kBatch distinct owned
  /// keys, each at its next version.
  void Next(uint64_t seed, WriteBatch* batch, Ack* ack) {
    batch->Clear();
    for (int i = 0; i < kBatch; ++i) {
      uint32_t local;
      bool dup;
      do {
        local = static_cast<uint32_t>(rng.Below(kKeysPerWriter));
        dup = false;
        for (int j = 0; j < i; ++j) dup |= ack->key[j] == local * kWriters + id;
      } while (dup);
      const uint32_t key = local * kWriters + id;
      const uint32_t version = ++versions[local];
      ack->key[i] = key;
      ack->version[i] = version;
      batch->Put(KeyOf(seed, key), ValueOf(seed, key, version, ValueLen(seed, key)));
    }
  }
  /// Forgets the versions of a commit that did not happen.
  void Undo(const Ack& ack) {
    for (int i = 0; i < kBatch; ++i) --versions[ack.key[i] / kWriters];
  }
};

double UserBytes(uint64_t seed, uint32_t key) {
  return 16.0 + static_cast<double>(ValueLen(seed, key));
}

/// The writer process: timed window, quiesce, checkpoint, fixed tail,
/// then results to files and SIGKILL.
void WriterProcess(const Args& args, const std::string& path) {
  Report report;
  Session<MultiVersionDB> session(args, path, "ingest", &report, false);
  MultiVersionDB* db = session.db();
  Status s;

  std::vector<Writer> writers;
  for (int w = 0; w < kWriters; ++w) writers.emplace_back(args.seed, w);
  std::vector<std::vector<Ack>> acks(kWriters);
  std::vector<Samples> lat(kWriters);
  std::vector<uint64_t> failed(kWriters, 0), conflicts(kWriters, 0);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Pacer> pacers;
  std::atomic<int64_t> budget(
      static_cast<int64_t>(args.seconds * kCommitsPerWriterSecond * kWriters));
  for (int w = 0; w < kWriters; ++w) pacers.emplace_back(args, w, deadline, &budget);
  std::vector<RateSlices> slices(kWriters, RateSlices(start));
  RunThreads(kWriters, [&](int w) {
    WriteBatch batch;
    Ack ack{};
    while (pacers[w].Next()) {
      writers[w].Next(args.seed, &batch, &ack);
      Timestamp ts = 0;
      const Status st =
          Timed(kWrite, &lat[w], [&] { return db->Write(batch, &ts); });
      if (st.ok()) {
        ack.ts = ts;
        acks[w].push_back(ack);
        slices[w].Add();
      } else {
        writers[w].Undo(ack);
        ++failed[w];
        if (st.IsTxnConflict()) ++conflicts[w];
      }
    }
  });
  const int64_t end = NowNs();
  Samples commit;
  RateSlices rate(start);
  uint64_t commits = 0;
  for (int w = 0; w < kWriters; ++w) {
    commit.Merge(lat[w]);
    rate.Merge(slices[w]);
    commits += acks[w].size();
    report.failed += failed[w];
    report.Add("txn.conflicts", static_cast<double>(conflicts[w]));
    report.Add("rounds." + std::to_string(w), static_cast<double>(pacers[w].rounds()));
  }
  report.attempted += commits + report.failed;
  report.Metric("commit_rate", rate.Rate(end), "1/s");
  report.Latency("commit", commit);

  {
    Span span(kCheckpoint);
    s = db->Checkpoint();
  }
  if (!s.ok()) Die("ingest: checkpoint", s);
  // The tail ends kTailCommits frames after the last checkpoint, so the
  // recovering Open always replays the same amount of log.
  uint64_t lsn = db->wal()->appended_lsn();
  WriteBatch batch;
  uint64_t tail = 0;
  for (int c = 0, since = 0; since < kTailCommits; ++c, ++since) {
    Writer& w = writers[c % kWriters];
    Ack ack{};
    w.Next(args.seed, &batch, &ack);
    Timestamp ts = 0;
    {
      Span span(kWrite);
      s = db->Write(batch, &ts);
    }
    ++report.attempted;
    if (!s.ok()) Die("ingest: tail commit", s);
    ack.ts = ts;
    acks[w.id].push_back(ack);
    ++tail;
    if (RotatedLog(db, &lsn)) since = -1;
  }
  session.Close("writer");
  double user_bytes = 0;
  std::vector<Ack> all;
  for (const auto& list : acks) {
    for (const Ack& a : list) {
      for (int i = 0; i < kBatch; ++i) user_bytes += UserBytes(args.seed, a.key[i]);
    }
    all.insert(all.end(), list.begin(), list.end());
  }
  report.Add("commits", static_cast<double>(commits + tail));
  report.Add("user_bytes", user_bytes);
  EndChild(args, "ingest", report, all);  // the database is deliberately never closed
}

}  // namespace

void RunIngest(const Args& args, Report* report) {
  const uint64_t seed = args.seed;
  const uint32_t shift = args.wrong_model ? 1 : 0;

  // ---- set-up: preload every key at version 0 (median of kSetUps builds)
  Timestamp preload_ts = 0;
  std::string path;
  SetUp<MultiVersionDB>(args, "ingest", kSetUps, report, &path, [&](MultiVersionDB* db) {
    WriteBatch batch;
    for (uint32_t k = 0; k < kKeys; ++k) {
      batch.Put(KeyOf(seed, k), ValueOf(seed, k, 0, ValueLen(seed, k)));
    }
    return db->Write(batch, &preload_ts).ok();
  });

  // ---- the writer process, killed after its tail
  const std::vector<Ack> acks = RunChild<Ack>(args, "ingest", report, [&] {
    WriterProcess(args, path);
  });

  // ---- model: every acked version of every key, oldest first
  std::vector<std::vector<Version>> model(kKeys);
  double user_bytes = 0;
  uint64_t versions = 0;
  for (uint32_t k = 0; k < kKeys; ++k) {
    model[k].push_back({preload_ts, 0});
    user_bytes += UserBytes(seed, k);
  }
  for (const Ack& a : acks) {
    for (int i = 0; i < kBatch; ++i) {
      model[a.key[i]].push_back({a.ts, a.version[i]});
      user_bytes += UserBytes(seed, a.key[i]);
    }
  }
  for (auto& list : model) {
    std::sort(list.begin(), list.end(),
              [](const Version& x, const Version& y) { return x.ts < y.ts; });
    versions += list.size();
  }

  // ---- recovering Open
  Session<MultiVersionDB> session(args, path, "ingest", report, true);
  MultiVersionDB* db = session.db();
  const tsb::tsb_tree::SpaceStats space = session.Space();
  report->checks.Expect("ingest.logical_versions",
                        space.logical_versions == versions + shift, [&] {
                          return std::to_string(space.logical_versions) +
                                 " logical versions, " +
                                 std::to_string(versions) + " acked";
                        });
  ReportSpace(space, user_bytes, report);

  // ---- read back, on one client: every acked version at its commit
  // timestamp and each key's current value, then one NextVersion walk per
  // key, then kScans short scans. Two passes, every check in both: the
  // first maps the files and fills the caches, the second is the one timed.
  std::vector<std::string> sorted_keys(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) sorted_keys[k] = KeyOf(seed, k);
  std::sort(sorted_keys.begin(), sorted_keys.end());
  Checks checks;
  Samples asof, current;
  std::vector<float> walk_rates, scan_rates;
  double read_rate = 0;
  uint64_t errors = 0;
  for (int pass = 0; pass < 2; ++pass) {
    asof = Samples();
    current = Samples();
    walk_rates.clear();
    scan_rates.clear();
    std::string value;
    const int64_t get_start = NowNs();
    RateSlices reads(get_start);
    for (uint32_t k = 0; k < kKeys; ++k) {
      const std::string key = KeyOf(seed, k);
      for (const Version& v : model[k]) {
        ReadOptions ro;
        ro.as_of = v.ts;
        Timestamp ts = 0;
        const Status st =
            Timed(kGetAsOf, &asof, [&] { return db->Get(ro, key, &value, &ts); });
        reads.Add();
        if (!st.ok()) ++errors;
        checks.Expect("ingest.asof_read",
                      st.ok() && ts == v.ts &&
                          value == ValueOf(seed, k, v.version + shift, ValueLen(seed, k)),
                      [&] { return "key " + std::to_string(k) + " at " + std::to_string(v.ts) + ": " + st.ToString(); });
      }
      Timestamp ts = 0;
      const Status st = Timed(kGetCurrent, &current, [&] {
        return db->Get(ReadOptions(), key, &value, &ts);
      });
      reads.Add();
      if (!st.ok()) ++errors;
      const Version& last = model[k].back();
      checks.Expect("ingest.current_read",
                    st.ok() && ts == last.ts &&
                        value == ValueOf(seed, k, last.version + shift, ValueLen(seed, k)));
    }
    read_rate = reads.Rate(NowNs());

    auto cursor = db->NewCursor();
    for (uint32_t k = 0; k < kKeys; ++k) {
      const std::string key = KeyOf(seed, k);
      const int64_t w0 = NowNs();
      Status st;
      {
        Span span(kCursorSeek);
        st = cursor->Seek(key);
      }
      size_t seen = 0;
      bool match = st.ok() && cursor->Valid() && cursor->key() == Slice(key);
      const auto& list = model[k];
      while (st.ok() && cursor->Valid()) {
        if (seen < list.size()) {
          const Version& v = list[list.size() - 1 - seen];
          match = match && cursor->ts() == v.ts &&
                  cursor->value() ==
                      Slice(ValueOf(seed, k, v.version + shift, ValueLen(seed, k)));
        }
        ++seen;
        Span span(kCursorNextVersion);
        st = cursor->NextVersion();
      }
      walk_rates.push_back(static_cast<float>(seen / ((NowNs() - w0) / 1e9)));
      if (!st.ok()) ++errors;
      checks.Expect("ingest.history_walk", match && seen == list.size(), [&] {
        return "key " + std::to_string(k) + ": walked " + std::to_string(seen) +
               " of " + std::to_string(list.size());
      });
    }

    Rng rng(Mix(seed, 0x500));
    for (int rep = 0; rep < kScans; ++rep) {
      const uint32_t start = static_cast<uint32_t>(rng.Below(kKeys));
      const size_t expect = std::min<size_t>(kScanLength, kKeys - start);
      auto scan = db->NewCursor();
      const int64_t s0 = NowNs();
      Status st;
      {
        Span span(kCursorSeek);
        st = scan->Seek(sorted_keys[start]);
      }
      size_t n = 0;
      bool ok = st.ok();
      while (st.ok() && scan->Valid() && n < kScanLength) {
        uint32_t k = 0;
        uint64_t tag = 0;
        ok = ok && start + n < kKeys && scan->key() == Slice(sorted_keys[start + n]) &&
             ParseValue(scan->value(), &k, &tag) && k < kKeys &&
             scan->key() == Slice(KeyOf(seed, k)) &&
             scan->value() == Slice(ValueOf(seed, k, model[k].back().version,
                                            ValueLen(seed, k)));
        ++n;
        Span span(kCursorNext);
        st = scan->Next();
      }
      scan_rates.push_back(static_cast<float>(n / ((NowNs() - s0) / 1e9)));
      if (!st.ok()) ++errors;
      checks.Expect("ingest.scan", ok && n == expect + shift, [&] {
        return "scanned " + std::to_string(n) + " of " + std::to_string(expect);
      });
    }
  }

  session.Close("reader");

  report->checks.Merge(checks);
  report->failed += errors;
  report->attempted += 2 * (asof.us.size() + current.us.size() + kKeys + kScans);
  // The layer counters span both read-back passes.
  report->Add("gets.current", 2.0 * static_cast<double>(current.us.size()));
  report->Add("gets.asof", 2.0 * static_cast<double>(asof.us.size()));
  report->Latency("get_asof", asof);
  report->Latency("get_current", current);
  report->Metric("read_rate", read_rate, "1/s");
  report->Metric("history_rate", MedianRate(walk_rates), "1/s");
  report->Metric("scan_rate", MedianRate(scan_rates), "1/s");
}

}  // namespace mvbench
