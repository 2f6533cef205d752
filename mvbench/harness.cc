#include "harness.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "trace.h"

namespace mvbench {

// ------------------------------------------------------------ inputs

std::string KeyOf(uint64_t seed, uint32_t i) {
  char buf[17];
  snprintf(buf, sizeof(buf), "%08x%08x",
           static_cast<uint32_t>(Mix(seed, i) >> 32), i);
  return std::string(buf, 16);
}

std::string ValueOf(uint64_t seed, uint32_t key, uint64_t tag, size_t len) {
  std::string v(std::max<size_t>(len, 24), '\0');
  snprintf(v.data(), 25, "%08x%016" PRIx64, key, tag);
  uint64_t h = Mix(seed, key, tag);
  for (size_t i = 24; i < v.size(); ++i) {
    if ((i & 7) == 0) h = Mix(h);
    v[i] = static_cast<char>('a' + ((h >> ((i & 7) * 8)) & 15));
  }
  return v;
}

bool ParseValue(const Slice& value, uint32_t* key, uint64_t* tag) {
  if (value.size() < 24) return false;
  char buf[25];
  memcpy(buf, value.data(), 24);
  buf[24] = '\0';
  char* end = nullptr;
  const std::string k(buf, 8);
  *key = static_cast<uint32_t>(strtoul(k.c_str(), &end, 16));
  if (end != k.c_str() + 8) return false;
  *tag = strtoull(buf + 8, &end, 16);
  return end == buf + 24;
}

// ------------------------------------------------------------ samples

Summary Summarize(Samples s) {
  Summary out;
  out.n = s.us.size();
  if (out.n == 0) return out;
  auto at = [&](double q) {
    const size_t idx = std::min(out.n - 1, static_cast<size_t>(q * (out.n - 1)));
    std::nth_element(s.us.begin(), s.us.begin() + idx, s.us.end());
    return static_cast<double>(s.us[idx]);
  };
  out.p50 = at(0.50);
  out.p99 = at(0.99);
  return out;
}

void RateSlices::Merge(const RateSlices& o) {
  if (o.counts_.size() > counts_.size()) counts_.resize(o.counts_.size(), 0.0);
  for (size_t i = 0; i < o.counts_.size(); ++i) counts_[i] += o.counts_[i];
}

double RateSlices::Rate(int64_t end) const {
  const size_t whole = static_cast<size_t>(std::max<int64_t>(0, end - start_) / kSliceNs);
  double total = 0;
  for (double c : counts_) total += c;
  if (whole < 3) return end > start_ ? total / ((end - start_) / 1e9) : 0.0;
  std::vector<double> rates;
  for (size_t i = 0; i < whole && i < counts_.size(); ++i) {
    rates.push_back(counts_[i] / (kSliceNs / 1e9));
  }
  rates.resize(whole, 0.0);
  std::sort(rates.begin(), rates.end());
  return rates.size() % 2 ? rates[rates.size() / 2]
                          : (rates[rates.size() / 2 - 1] + rates[rates.size() / 2]) / 2;
}

double MedianRate(std::vector<float> rates) {
  if (rates.empty()) return 0.0;
  const size_t mid = rates.size() / 2;
  std::nth_element(rates.begin(), rates.begin() + mid, rates.end());
  return rates[mid];
}

Checks::Tally& Checks::Find(const char* name) {
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == name) return tallies_[i];
  }
  for (size_t i = 0; i < tallies_.size(); ++i) {
    if (tallies_[i].name == name) {
      keys_[i] = name;
      return tallies_[i];
    }
  }
  keys_.push_back(name);
  tallies_.push_back({name, 0, 0});
  return tallies_.back();
}

void Checks::Merge(const Checks& o) {
  for (const Tally& t : o.tallies_) {
    Tally* mine = nullptr;
    for (Tally& m : tallies_) {
      if (m.name == t.name) mine = &m;
    }
    if (mine == nullptr) {
      keys_.push_back(nullptr);
      tallies_.push_back({t.name, 0, 0});
      mine = &tallies_.back();
    }
    mine->pass += t.pass;
    mine->fail += t.fail;
  }
  for (const std::string& s : o.samples_) {
    if (samples_.size() < 8) samples_.push_back(s);
  }
}

bool Checks::all_passed() const {
  for (const Tally& t : tallies_) {
    if (t.fail != 0) return false;
  }
  return true;
}

// ------------------------------------------------------------ report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::Latency(const std::string& name, const Samples& s) {
  const Summary sum = Summarize(s);
  Metric(name + "_p50_us", sum.p50, "us");
  Metric(name + "_p99_us", sum.p99, "us");
  Metric(name + "_n", static_cast<double>(sum.n), "count");
}

double Report::raw(const std::string& name) const {
  auto it = raw_.find(name);
  return it == raw_.end() ? 0.0 : it->second;
}

// Text format, one record per line:
//   m <name> <value> <unit>   metric
//   r <name> <value>          raw count
//   c <name> <pass> <fail>    check tally
//   s <text>                  failure sample
//   a <attempted> <failed>
bool Report::Save(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const auto& [name, m] : metrics_) {
    fprintf(f, "m %s %.17g %s\n", name.c_str(), m.first, m.second.c_str());
  }
  for (const auto& [name, v] : raw_) fprintf(f, "r %s %.17g\n", name.c_str(), v);
  for (const auto& t : checks.tallies()) {
    fprintf(f, "c %s %" PRIu64 " %" PRIu64 "\n", t.name.c_str(), t.pass, t.fail);
  }
  for (const auto& s : checks.samples()) {
    std::string line = s;
    std::replace(line.begin(), line.end(), '\n', ' ');
    fprintf(f, "s %s\n", line.c_str());
  }
  fprintf(f, "a %" PRIu64 " %" PRIu64 "\n", attempted, failed);
  return fclose(f) == 0;
}

bool Report::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool saw_end = false;
  Checks loaded;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string kind, name;
    ls >> kind;
    if (kind == "m") {
      double v = 0;
      std::string unit;
      ls >> name >> v >> unit;
      metrics_[name] = {v, unit};
    } else if (kind == "r") {
      double v = 0;
      ls >> name >> v;
      raw_[name] += v;
    } else if (kind == "c") {
      uint64_t pass = 0, fail = 0;
      ls >> name >> pass >> fail;
      Checks::Tally t{name, pass, fail};
      loaded.tallies_.push_back(t);
      loaded.keys_.push_back(nullptr);
    } else if (kind == "s") {
      loaded.samples_.push_back(line.size() > 2 ? line.substr(2) : "");
    } else if (kind == "a") {
      uint64_t a = 0, f = 0;
      ls >> a >> f;
      attempted += a;
      failed += f;
      saw_end = true;
    }
  }
  checks.Merge(loaded);
  return saw_end;
}

void ReportSpace(const tsb::tsb_tree::SpaceStats& space, double user_bytes,
                 Report* report) {
  report->Metric("space_bytes_per_user_byte",
                 static_cast<double>(space.total_bytes()) / user_bytes, "ratio");
  report->Metric("copies_per_version", space.redundancy(), "ratio");
  report->Metric("magnetic_mb", space.magnetic_bytes / 1048576.0, "MiB");
  report->Metric("historical_mb", space.optical_device_bytes / 1048576.0, "MiB");
}

// ------------------------------------------------------------ counters

namespace {

void AddDb(tsb::db::MultiVersionDB* db, std::map<std::string, double>* v) {
  const tsb::BufferPoolStats pool = db->PoolStats();
  const tsb::HistReadStats hist = db->HistStats();
  const tsb::tsb_tree::TsbCounters& c = db->primary()->counters();
  auto& m = *v;
  m["pool.hits"] += pool.hits;
  m["pool.misses"] += pool.misses;
  m["pool.evictions"] += pool.evictions;
  m["pool.dirty_writebacks"] += pool.dirty_writebacks;
  m["hist.blob_reads"] += hist.blob_reads;
  m["hist.cache_hits"] += hist.cache_hits;
  m["hist.cache_misses"] += hist.cache_misses;
  m["hist.mapped_bytes"] += hist.mapped_bytes;
  m["hist.copied_bytes"] += hist.copied_bytes;
  m["hist.owned_decodes"] += hist.owned_decodes;
  m["tsb.data_key_splits"] += c.data_key_splits;
  m["tsb.data_time_splits"] += c.data_time_splits;
  m["tsb.index_key_splits"] += c.index_key_splits;
  m["tsb.index_time_splits"] += c.index_time_splits;
  m["tsb.hist_data_nodes"] += c.hist_data_nodes;
  m["tsb.records_migrated"] += c.records_migrated;
  m["tsb.redundant_record_copies"] += c.redundant_record_copies;
  m["tsb.stamp_descents"] += c.stamp_descents;
  m["tsb.olc_restarts"] += c.olc_restarts;
  m["txn.serial_fallback_commits"] +=
      db->txn_manager()->serial_fallback_commits();
}

}  // namespace

Counters Counters::Of(tsb::db::MultiVersionDB* db) {
  Counters out;
  AddDb(db, &out.v);
  return out;
}

Counters Counters::Of(tsb::shard::ShardedDB* db) {
  Counters out;
  for (uint32_t i = 0; i < db->num_shards(); ++i) AddDb(db->shard(i), &out.v);
  return out;
}

void Counters::AddDelta(const Counters& before, Report* report) const {
  for (const auto& [name, value] : v) {
    auto it = before.v.find(name);
    report->Add(name, value - (it == before.v.end() ? 0.0 : it->second));
  }
}

void WalCounter::AddTo(Report* report) const {
  report->Add("wal.appends", static_cast<double>(plan->ops(tsb::FaultOp::kAppend)));
  report->Add("wal.syncs", static_cast<double>(plan->ops(tsb::FaultOp::kSync)));
}

bool RotatedLog(tsb::db::MultiVersionDB* db, uint64_t* lsn) {
  const uint64_t now = db->wal()->appended_lsn();
  const bool rotated = now < *lsn;
  *lsn = now;
  return rotated;
}

// ------------------------------------------------------------ phases

namespace {

tsb::db::DbOptions DefaultOptions(const Args& args, const WalCounter* wal) {
  tsb::db::DbOptions opts;
  if (args.trace) {
    opts.wrap_device = WrapTracing;
    if (wal != nullptr) opts.wal_fault_plan = wal->plan;
  }
  return opts;
}

tsb::shard::ShardedOptions DefaultShardedOptions(const Args& args,
                                                 const WalCounter* wal,
                                                 const WalCounter* coord) {
  tsb::shard::ShardedOptions opts;
  opts.base = DefaultOptions(args, wal);
  if (args.trace && coord != nullptr) opts.coord_fault_plan = coord->plan;
  return opts;
}

/// Opens `path` with the run's default options; `wal` and `coord` receive
/// the WAL counting plans on traced runs (either may be null).
Status OpenDb(const Args& args, const std::string& path, const WalCounter* wal,
              const WalCounter*, std::unique_ptr<tsb::db::MultiVersionDB>* db) {
  return tsb::db::MultiVersionDB::Open(path, DefaultOptions(args, wal), db);
}

Status OpenDb(const Args& args, const std::string& path, const WalCounter* wal,
              const WalCounter* coord, std::unique_ptr<tsb::shard::ShardedDB>* db) {
  return tsb::shard::ShardedDB::Open(path, DefaultShardedOptions(args, wal, coord), db);
}

void AddRecovery(tsb::db::MultiVersionDB* db, Report* report) {
  report->Add("recovery.frames", static_cast<double>(db->recovery_stats().frames_replayed));
  report->Add("recovery.ops", static_cast<double>(db->recovery_stats().ops_replayed));
}

void AddRecovery(tsb::shard::ShardedDB* db, Report* report) {
  for (uint32_t i = 0; i < db->num_shards(); ++i) AddRecovery(db->shard(i), report);
}

Status SpaceOf(tsb::db::MultiVersionDB* db, tsb::tsb_tree::SpaceStats* out) {
  return db->ComputeSpaceStats(out);
}

Status SpaceOf(tsb::shard::ShardedDB* db, tsb::tsb_tree::SpaceStats* out) {
  for (uint32_t i = 0; i < db->num_shards(); ++i) {
    tsb::tsb_tree::SpaceStats space;
    const Status s = db->shard(i)->ComputeSpaceStats(&space);
    if (!s.ok()) return s;
    out->magnetic_bytes += space.magnetic_bytes;
    out->optical_device_bytes += space.optical_device_bytes;
    out->logical_versions += space.logical_versions;
    out->physical_record_copies += space.physical_record_copies;
  }
  return Status::OK();
}

[[noreturn]] void CrashNow() {
  fflush(nullptr);
  ::kill(::getpid(), SIGKILL);
  ::_exit(99);  // unreachable: SIGKILL cannot be caught
}

/// Runs `body` in a forked child and waits for it; true only if the
/// child died of SIGKILL.
bool RunAndKill(const std::string& dir, const std::function<void()>& body) {
  SyncTree(dir);
  fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) return false;
  if (pid == 0) {
    body();
    CrashNow();
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return false;
  }
  SyncTree(dir);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

}  // namespace

template <typename DB>
void SetUp(const Args& args, const char* workload, int builds, Report* report,
           std::string* path, const std::function<bool(DB*)>& fill) {
  *path = args.dir + "/db";
  std::vector<double> times;
  for (int i = 0; i < builds; ++i) {
    const Status gone = DB::Destroy(*path);
    if (!gone.ok()) Die(std::string(workload) + ": set-up destroy", gone);
    SyncTree(args.dir);
    const int64_t t0 = NowNs();
    std::unique_ptr<DB> db;
    const Status s = OpenDb(args, *path, nullptr, nullptr, &db);
    if (!s.ok()) Die(std::string(workload) + ": set-up open", s);
    if (!fill(db.get())) Die(std::string(workload) + ": set-up failed");
    db.reset();
    times.push_back((NowNs() - t0) / 1e9);
  }
  std::sort(times.begin(), times.end());
  report->Metric("setup_s", times[times.size() / 2], "s");
}

template void SetUp<tsb::db::MultiVersionDB>(
    const Args&, const char*, int, Report*, std::string*,
    const std::function<bool(tsb::db::MultiVersionDB*)>&);
template void SetUp<tsb::shard::ShardedDB>(
    const Args&, const char*, int, Report*, std::string*,
    const std::function<bool(tsb::shard::ShardedDB*)>&);

template <typename DB>
Session<DB>::Session(const Args& args, const std::string& path, const char* workload,
                     Report* report, bool recovering)
    : args_(args), workload_(workload), report_(report) {
  EnableTracing(args.trace);
  const int64_t t0 = NowNs();
  Status s;
  {
    Span span(kOpen);
    s = OpenDb(args, path, &wal_, &coord_, &db_);
  }
  const double open_s = (NowNs() - t0) / 1e9;
  if (!s.ok()) Die(workload_ + (recovering ? ": recovering open" : ": open"), s);
  if (recovering) {
    report->Metric("recovery_s", open_s, "s");
    AddRecovery(db_.get(), report);
    report->Add("recovery.us", open_s * 1e6);
  } else {
    base_ = Counters::Of(db_.get());
  }
}

template <typename DB>
tsb::tsb_tree::SpaceStats Session<DB>::Space() {
  Counters::Of(db_.get()).AddDelta(base_, report_);
  EnableTracing(false);
  tsb::tsb_tree::SpaceStats space;
  const int64_t t0 = NowNs();
  const Status s = SpaceOf(db_.get(), &space);
  report_->Metric("space_stats_s", (NowNs() - t0) / 1e9, "s");
  if (!s.ok()) Die(workload_ + ": space stats", s);
  EnableTracing(args_.trace);
  base_ = Counters::Of(db_.get());
  return space;
}

template <typename DB>
void Session<DB>::Close(const char* name) {
  Counters::Of(db_.get()).AddDelta(base_, report_);
  wal_.AddTo(report_);
  coord_.AddTo(report_);
  if (args_.trace && !DumpSpans(args_.dir + "/spans-" + name + ".bin")) {
    Die(workload_ + ": cannot write spans");
  }
  EnableTracing(false);
}

template class Session<tsb::db::MultiVersionDB>;
template class Session<tsb::shard::ShardedDB>;

std::string RunChildBytes(const Args& args, const char* workload, Report* report,
                          const std::function<void()>& body) {
  if (!RunAndKill(args.dir, body)) {
    Die(std::string(workload) + ": the child process did not end by SIGKILL");
  }
  if (!report->Load(args.dir + "/child.report")) {
    Die(std::string(workload) + ": no child report");
  }
  std::ifstream in(args.dir + "/acks.bin", std::ios::binary);
  if (!in) Die(std::string(workload) + ": no acks file");
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

[[noreturn]] void EndChildBytes(const Args& args, const char* workload,
                                const Report& report, const void* acks, size_t bytes) {
  FILE* f = fopen((args.dir + "/acks.bin").c_str(), "wb");
  if (f == nullptr || (bytes != 0 && fwrite(acks, 1, bytes, f) != bytes) || fclose(f) != 0) {
    Die(std::string(workload) + ": cannot write acks");
  }
  if (!report.Save(args.dir + "/child.report")) {
    Die(std::string(workload) + ": cannot save report");
  }
  CrashNow();
}

// ------------------------------------------------------------ processes

double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self.ru_maxrss, children.ru_maxrss) / 1024.0;
}

double RunThreads(int n, const std::function<void(int)>& fn) {
  const int64_t t0 = NowNs();
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) threads.emplace_back(fn, i);
  for (auto& t : threads) t.join();
  return (NowNs() - t0) / 1e9;
}

bool MakeDirs(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return !ec;
}

void RemoveTree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

void SyncTree(const std::string& dir) {
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator(); it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const int fd = ::open(it->path().c_str(), O_RDONLY);
    if (fd < 0) continue;
    (void)::fdatasync(fd);
    ::close(fd);
  }
}

[[noreturn]] void Die(const std::string& what, const Status& s) {
  fprintf(stderr, "mvbench: %s%s%s\n", what.c_str(), s.ok() ? "" : ": ",
          s.ok() ? "" : s.ToString().c_str());
  fflush(nullptr);
  ::_exit(2);
}

}  // namespace mvbench
