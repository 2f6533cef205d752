// Shared pieces of the end-to-end benchmark: command-line arguments, the
// deterministic input generator every workload's model is built on,
// latency samples, check tallies, the report a run prints, per-phase
// counter snapshots, and the set-up, session and crash-phase scaffolding
// every workload shares.
#ifndef MVBENCH_HARNESS_H_
#define MVBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "db/multiversion_db.h"
#include "shard/sharded_db.h"
#include "storage/fault_device.h"

namespace mvbench {

using tsb::Slice;
using tsb::Status;
using tsb::Timestamp;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test: every model expectation is deliberately shifted, so every
  /// check must report failures.
  bool wrong_model = false;
  /// Directory the run's databases live in (created, emptied at the end).
  std::string dir;
  /// When set, client thread i runs exactly rounds[i] rounds instead of
  /// running until the window closes: a traced run repeats the work of an
  /// untraced run of the same seed, so their counters can be compared.
  std::vector<uint64_t> rounds;
};

/// Closed-loop pacing of one client thread: the next round starts when
/// the previous one returned, until the window closes or, when `budget`
/// is given, until the clients sharing it have done that many rounds
/// between them (so they all stop within one round of each other).
/// Args::rounds overrides both with a fixed count for this client.
class Pacer {
 public:
  Pacer(const Args& args, int client, int64_t deadline,
        std::atomic<int64_t>* budget = nullptr)
      : fixed_(!args.rounds.empty()),
        limit_(fixed_ && client < static_cast<int>(args.rounds.size()) ? args.rounds[client]
                                                                       : 0),
        deadline_(deadline),
        budget_(budget) {}
  bool Next() {
    if (fixed_) {
      if (done_ >= limit_) return false;
    } else if (budget_ != nullptr) {
      if (budget_->fetch_sub(1, std::memory_order_relaxed) <= 0) return false;
    } else if (NowNs() >= deadline_) {
      return false;
    }
    ++done_;
    return true;
  }
  uint64_t rounds() const { return done_; }

 private:
  bool fixed_;
  uint64_t limit_;
  int64_t deadline_;
  std::atomic<int64_t>* budget_;
  uint64_t done_ = 0;
};

/// Fails the run: prints `what` and `s` to stderr and exits non-zero
/// without printing a result.
[[noreturn]] void Die(const std::string& what, const Status& s = Status::OK());

// ------------------------------------------------------------ inputs

/// splitmix64 finalizer: the one hash every generated input comes from.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
inline uint64_t Mix(uint64_t a, uint64_t b) { return Mix(a ^ Mix(b)); }
inline uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  return Mix(Mix(a, b), c);
}

class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() { return Mix(s_++); }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// Key number `i` as 16 hex characters: a seed-dependent hash prefix (so
/// key order is scrambled against key number) plus `i` (so keys are
/// unique).
std::string KeyOf(uint64_t seed, uint32_t i);

/// The value a model expects for (key number, tag): `len` bytes, the
/// first 24 spelling key and tag in hex, the rest pseudo-random from
/// (seed, key, tag). Every workload derives its expected reads from this
/// function, never from earlier output.
std::string ValueOf(uint64_t seed, uint32_t key, uint64_t tag, size_t len);

/// Parses the (key, tag) header ValueOf writes; false if malformed.
bool ParseValue(const Slice& value, uint32_t* key, uint64_t* tag);

// ------------------------------------------------------------ samples

/// Latency samples in microseconds from one thread; merged after join.
struct Samples {
  std::vector<float> us;
  void Add(int64_t ns) { us.push_back(static_cast<float>(ns / 1000.0)); }
  void Merge(const Samples& o) { us.insert(us.end(), o.us.begin(), o.us.end()); }
};

struct Summary {
  double p50 = 0;
  double p99 = 0;
  size_t n = 0;
};
Summary Summarize(Samples s);

/// Completions per fixed time slice of a window, from one thread; merged
/// by summing. A rate is the median over the window's whole slices, so a
/// transient stall of the shared machine moves it less than the mean.
class RateSlices {
 public:
  static constexpr int64_t kSliceNs = 250'000'000;
  explicit RateSlices(int64_t start = 0) : start_(start) {}
  void Add(double n = 1) {
    const size_t i = static_cast<size_t>((NowNs() - start_) / kSliceNs);
    if (i >= counts_.size()) counts_.resize(i + 1, 0.0);
    counts_[i] += n;
  }
  void Merge(const RateSlices& o);
  /// Median per-second rate over the slices that ended before `end`; the
  /// plain mean when the window holds fewer than three whole slices.
  double Rate(int64_t end) const;

 private:
  int64_t start_;
  std::vector<double> counts_;
};

/// Median of per-operation rates (items per second of one scan or walk).
double MedianRate(std::vector<float> rates);

/// Per-thread tally of named checks. Names are string literals; lookups
/// compare pointers first so the hot loops stay cheap.
class Checks {
 public:
  /// Counts one evaluation of check `name`; on failure keeps `detail()`
  /// for the first few failures.
  template <typename F>
  bool Expect(const char* name, bool ok, F detail) {
    Tally& t = Find(name);
    if (ok) {
      ++t.pass;
    } else {
      ++t.fail;
      if (samples_.size() < 8) samples_.push_back(std::string(name) + ": " + detail());
    }
    return ok;
  }
  bool Expect(const char* name, bool ok) {
    return Expect(name, ok, [] { return std::string(); });
  }
  void Merge(const Checks& o);
  bool all_passed() const;

  struct Tally {
    std::string name;
    uint64_t pass = 0;
    uint64_t fail = 0;
  };
  const std::vector<Tally>& tallies() const { return tallies_; }
  const std::vector<std::string>& samples() const { return samples_; }

 private:
  friend class Report;
  Tally& Find(const char* name);

  std::vector<const char*> keys_;
  std::vector<Tally> tallies_;
  std::vector<std::string> samples_;
};

/// Everything one process of a run measured. A crash phase's child saves
/// its report to a file; the parent loads and merges it.
class Report {
 public:
  /// End-to-end metric (printed; the --trace 0 JSON carries the ones
  /// BENCHMARK.json names).
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Latency summary: <name>_p50_us, <name>_p99_us and <name>_n.
  void Latency(const std::string& name, const Samples& s);
  /// Additive raw count (merged across processes by summing).
  void Add(const std::string& name, double v) { raw_[name] += v; }
  double raw(const std::string& name) const;

  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  const std::map<std::string, std::pair<double, std::string>>& metrics() const {
    return metrics_;
  }
  const std::map<std::string, double>& raws() const { return raw_; }

  bool Save(const std::string& path) const;
  bool Load(const std::string& path);

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, double> raw_;
};

/// Reports space_bytes_per_user_byte and copies_per_version from `space`,
/// with the device sizes behind them (magnetic_mb, historical_mb).
void ReportSpace(const tsb::tsb_tree::SpaceStats& space, double user_bytes,
                 Report* report);

// ------------------------------------------------------------ counters

/// Counter snapshot of one database (or the sum over a sharded one's
/// shards), read through the public stats calls. Phase deltas of these
/// feed the per-layer metrics.
struct Counters {
  std::map<std::string, double> v;
  static Counters Of(tsb::db::MultiVersionDB* db);
  static Counters Of(tsb::shard::ShardedDB* db);
  /// Adds (this - before) into `report` as raw counts.
  void AddDelta(const Counters& before, Report* report) const;
};

/// Records WAL appends and syncs by being consulted on each one; never
/// armed, so it never injects a fault. Installed only on traced runs.
struct WalCounter {
  std::shared_ptr<tsb::FaultPlan> plan = std::make_shared<tsb::FaultPlan>();
  void AddTo(Report* report) const;
};

/// True when the live WAL restarted since `*lsn` was read (a size-
/// triggered checkpoint rotated it); updates `*lsn`. Call only between
/// commits of a single writer: MultiVersionDB::wal() is quiesced-only.
bool RotatedLog(tsb::db::MultiVersionDB* db, uint64_t* lsn);

// ------------------------------------------------------------ phases

/// Builds the workload's database `builds` times at `*path` and reports
/// setup_s, the median build time. Each build opens a fresh database,
/// runs `fill` on it and closes it; the previous build is destroyed and
/// the run directory synced before the clock starts, so no build pays for
/// another's files. The last build is kept.
template <typename DB>
void SetUp(const Args& args, const char* workload, int builds, Report* report,
           std::string* path, const std::function<bool(DB*)>& fill);

/// One open database of a timed phase: opened with default options (plus
/// the tracing hooks on traced runs) and tracing turned on for traced
/// runs. A recovering session times its Open as recovery_s and reports the
/// replay counts; its layer counters then include the Open's. A fresh one
/// counts from after its Open.
template <typename DB>
class Session {
 public:
  Session(const Args& args, const std::string& path, const char* workload,
          Report* report, bool recovering);
  DB* db() const { return db_.get(); }
  /// ComputeSpaceStats (summed over shards), timed as space_stats_s. The
  /// walk reads every node, so it stays out of the layer counters and the
  /// trace.
  tsb::tsb_tree::SpaceStats Space();
  /// Adds the layer counter and WAL deltas to the report, writes this
  /// process's spans (as spans-<name>.bin) and turns tracing off.
  void Close(const char* name);

 private:
  const Args& args_;
  std::string workload_;
  Report* report_;
  WalCounter wal_, coord_;
  std::unique_ptr<DB> db_;
  Counters base_;
};

// The untyped halves of RunChild and EndChild.
std::string RunChildBytes(const Args& args, const char* workload, Report* report,
                          const std::function<void()>& body);
[[noreturn]] void EndChildBytes(const Args& args, const char* workload,
                                const Report& report, const void* acks, size_t bytes);

/// The crash phase: runs `body` in a forked child, which must end with
/// EndChild, merges the child's report into `report` and returns the acked
/// commits the child wrote. The caller must have no other threads. The
/// run directory is synced before the fork and after the child ended, so
/// neither timed phase pays for the other's writeback.
template <typename T>
std::vector<T> RunChild(const Args& args, const char* workload, Report* report,
                        const std::function<void()>& body) {
  const std::string bytes = RunChildBytes(args, workload, report, body);
  if (bytes.size() % sizeof(T) != 0) Die(std::string(workload) + ": torn acks file");
  std::vector<T> acks(bytes.size() / sizeof(T));
  if (!bytes.empty()) memcpy(acks.data(), bytes.data(), bytes.size());
  return acks;
}

/// Ends a crash phase's child: writes `acks` and `report` for the parent,
/// then SIGKILLs the process (no destructor, flush or close runs).
template <typename T>
[[noreturn]] void EndChild(const Args& args, const char* workload, const Report& report,
                           const std::vector<T>& acks) {
  EndChildBytes(args, workload, report, acks.data(), acks.size() * sizeof(T));
}

// ------------------------------------------------------------ processes

/// Peak resident set of this process and its waited-for children, MiB.
double PeakRssMb();

/// Runs fn(0..n-1) on n threads, joins them, returns the wall seconds.
double RunThreads(int n, const std::function<void(int)>& fn);

/// Creates `dir` (and parents); empties nothing.
bool MakeDirs(const std::string& dir);
/// Removes `path` recursively.
void RemoveTree(const std::string& path);
/// fdatasyncs every regular file under `dir`, so the kernel's writeback of
/// a previous phase's (or a killed process's) dirty pages does not run
/// inside the next timed phase. Touches only the run's own files.
void SyncTree(const std::string& dir);

}  // namespace mvbench

#endif  // MVBENCH_HARNESS_H_
