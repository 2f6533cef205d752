// sharded_mixed: a ShardedDB with the default 4 shards. Two writer threads
// commit 4-key batches over keys each writer alone owns; three of every
// four batches take one key from each shard (the coordinator path), the
// fourth keeps all keys on one shard. Beside them two reader threads take
// BeginReadOnly snapshots and read: a point read, the rest of the batch
// that wrote it (no snapshot may see a batch torn), an as-of read, a short
// snapshot scan and one key's history. The as-of read and the history
// walk read archive keys: keys set-up gave a fixed history that no writer
// touches, so what they read does not depend on how far the writers have
// got. The key set fits in the shards' pools. After the window every
// observed (key, T) -> version is checked against the acked commits; then
// a fixed tail of cross-shard commits, a SIGKILL, and the parent times the
// recovering Open and checks every key's newest acked version survived.
#include <algorithm>
#include <atomic>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace mvbench {
namespace {

using tsb::db::ReadOptions;
using tsb::db::WriteBatch;
using tsb::shard::ShardedDB;

constexpr uint32_t kKeys = 8192;  // ~3 MB of pages: fits the 4 shards' pools
constexpr int kWriters = 2;
constexpr int kReaders = 2;
constexpr int kBatch = 4;
// Archive keys: kArchiveRounds set-up commits of every archive key, all
// sorted before the writers' keys so they share no page with them.
constexpr uint32_t kArchiveKeys = 1024;
constexpr uint32_t kArchiveRounds = 8;
// setup_s is the median of this many preloads. A preload is the archive's
// rounds and then one cross-shard commit of every key: most of it is CPU,
// and few of its steps wait on the shared disk's fdatasyncs, whose latency
// swings between periods.
constexpr int kSetUps = 31;
// Enough replay work that the recovering Open's fixed fdatasyncs do not
// dominate recovery_s.
constexpr int kTailCommits = 4000;
// The window is a fixed amount of work: commits shared by the writers and
// rounds shared by the readers, each sized to last about --seconds on the
// reference machine. A cross-shard commit waits on five fdatasyncs, and
// the shared disk's latency swings between periods (1k-3.6k commits/s
// over twenty seeds): a timed window wrote a different amount of history
// on every run, and readers that ran as long as the writers kept a
// different number of observations, so space, walk lengths and memory
// drifted with the disk.
constexpr double kCommitsPerWriterSecond = 1000;
constexpr double kRoundsPerReaderSecond = 4000;
constexpr int kScanLength = 8;

size_t ValueLen(uint64_t seed, uint32_t key) {
  return 80 + Mix(seed, key, 0x5a) % 81;
}

/// Archive key `i`: a '-' (below every hex digit) and 15 hex characters.
/// Its values use key number kKeys + i.
std::string ArchiveKeyOf(uint64_t seed, uint32_t i) {
  char buf[17];
  snprintf(buf, sizeof(buf), "-%07x%08x",
           static_cast<uint32_t>(Mix(seed, 0x500, i) >> 36), i);
  return std::string(buf, 16);
}

/// Version tag written into a value: 0 for the preload, else the writer
/// (high 4 bits, 1-based) and its batch number (low 28 bits).
uint32_t Tag(int writer, uint32_t batch) {
  return (static_cast<uint32_t>(writer + 1) << 28) | batch;
}
int TagWriter(uint32_t tag) { return static_cast<int>(tag >> 28) - 1; }
uint32_t TagBatch(uint32_t tag) { return tag & ((1u << 28) - 1); }

/// One acked commit.
struct Ack {
  uint32_t tag;
  uint32_t ts;
};

/// One read a reader observed: key `key` at snapshot time `at` showed the
/// version stamped `ts` carrying `tag`.
struct Observation {
  uint32_t key;
  uint32_t at;
  uint32_t ts;
  uint32_t tag;
};

struct Model {
  uint64_t seed = 0;
  uint32_t shift = 0;  // wrong-model self-test
  std::vector<std::string> keys;         // key number -> key
  std::vector<std::string> sorted_keys;
  std::vector<std::string> archive_keys;
  Timestamp archive_ts[kArchiveRounds] = {};  // commit time of each round
  // owned[w][s]: key numbers writer w owns on shard s (k % kWriters == w).
  std::vector<std::vector<uint32_t>> owned[kWriters];
  Timestamp preload_ts = 0;

  /// The keys of writer w's batch j: one per shard, or (every fourth
  /// batch) kBatch distinct keys of one shard.
  void BatchKeys(int w, uint32_t j, uint32_t out[kBatch]) const {
    const auto& shards = owned[w];
    const size_t n = shards.size();
    Rng rng(Mix(seed, 0x300 + w, j));
    if (j % 4 != 0 && n >= kBatch) {
      for (int i = 0; i < kBatch; ++i) {
        const auto& list = shards[(j + i) % n];
        out[i] = list[rng.Below(list.size())];
      }
      return;
    }
    const auto& list = shards[j % n];
    for (int i = 0; i < kBatch; ++i) {
      bool dup;
      do {
        out[i] = list[rng.Below(list.size())];
        dup = false;
        for (int x = 0; x < i; ++x) dup |= out[x] == out[i];
      } while (dup);
    }
  }
  std::string Value(uint32_t key, uint32_t tag) const {
    return ValueOf(seed, key, tag, ValueLen(seed, key));
  }
  /// Archive key i's value in round r.
  std::string ArchiveValue(uint32_t i, uint32_t r) const { return Value(kKeys + i, r); }
  double ArchiveUserBytes() const {
    double bytes = 0;
    for (uint32_t i = 0; i < kArchiveKeys; ++i) {
      bytes += 16.0 + static_cast<double>(ValueLen(seed, kKeys + i));
    }
    return bytes * kArchiveRounds;
  }
};

/// Per key, its acked versions (ts, tag) oldest first.
using History = std::vector<std::vector<Ack>>;

History BuildHistory(const Model& m, const std::vector<Ack>& acks) {
  History h(kKeys);
  for (uint32_t k = 0; k < kKeys; ++k) {
    h[k].push_back({0, static_cast<uint32_t>(m.preload_ts)});
  }
  for (const Ack& a : acks) {
    uint32_t keys[kBatch];
    m.BatchKeys(TagWriter(a.tag), TagBatch(a.tag), keys);
    for (uint32_t k : keys) h[k].push_back({a.tag, a.ts});
  }
  for (auto& list : h) {
    std::sort(list.begin(), list.end(),
              [](const Ack& x, const Ack& y) { return x.ts < y.ts; });
  }
  return h;
}

struct ReaderOut {
  Checks checks;
  Samples current, asof;
  std::vector<Observation> seen;
  uint64_t ops = 0, errors = 0;
  std::vector<float> walk_rates, scan_rates;  // per walk / per scan
  RateSlices reads;                           // point reads completed
};

/// Reads `key` at snapshot `at` through `get`, checks the value is one the
/// model could have written, and records the observation.
template <typename Get>
uint32_t Observe(const Model& m, uint32_t key, Timestamp at, SpanName span,
                 Samples* lat, ReaderOut* out, Get get) {
  std::string value;
  Timestamp ts = 0;
  const Status st = Timed(span, lat, [&] { return get(m.keys[key], &value, &ts); });
  uint32_t k = 0;
  uint64_t tag = 0;
  const bool ok = st.ok() && ParseValue(value, &k, &tag) && k == key &&
                  value == m.Value(key, static_cast<uint32_t>(tag) + m.shift);
  out->reads.Add();
  if (!st.ok()) ++out->errors;
  out->checks.Expect("sharded.value", ok, [&] { return st.ToString(); });
  out->seen.push_back({key, static_cast<uint32_t>(at), static_cast<uint32_t>(ts),
                       static_cast<uint32_t>(tag)});
  return static_cast<uint32_t>(tag);
}

void ReaderLoop(ShardedDB* db, const Model& m, int r, Pacer* pacer,
                ReaderOut* out) {
  Rng rng(Mix(m.seed, 0x400 + r));
  while (pacer->Next()) {
    auto snap = db->BeginReadOnly();
    const Timestamp at = snap.timestamp();
    auto snap_get = [&](const std::string& key, std::string* v, Timestamp* ts) {
      return snap.Get(key, v, ts);
    };
    // A point read, then the rest of the batch that wrote it: every other
    // key of that batch must show that batch or a later one of its writer.
    const uint32_t k = static_cast<uint32_t>(rng.Below(kKeys));
    const uint32_t tag = Observe(m, k, at, kGetCurrent, &out->current, out, snap_get);
    if (tag != 0) {
      uint32_t keys[kBatch];
      m.BatchKeys(TagWriter(tag), TagBatch(tag), keys);
      for (uint32_t other : keys) {
        if (other == k) continue;
        const uint32_t t2 = Observe(m, other, at, kGetCurrent, &out->current, out, snap_get);
        out->checks.Expect("sharded.no_torn_batch",
                           t2 != 0 && TagWriter(t2) == TagWriter(tag) &&
                               TagBatch(t2) >= TagBatch(tag) + m.shift,
                           [&] { return "key " + std::to_string(other) + " at " + std::to_string(at); });
      }
    }
    // An as-of read of an archive key at one of its rounds.
    {
      const uint32_t a = static_cast<uint32_t>(rng.Below(kArchiveKeys));
      const uint32_t round = static_cast<uint32_t>(rng.Below(kArchiveRounds));
      ReadOptions ro;
      ro.as_of = m.archive_ts[round];
      std::string value;
      Timestamp ts = 0;
      const Status st = Timed(kGetAsOf, &out->asof, [&] {
        return db->Get(ro, m.archive_keys[a], &value, &ts);
      });
      out->reads.Add();
      if (!st.ok()) ++out->errors;
      out->checks.Expect("sharded.asof",
                         st.ok() && ts == m.archive_ts[round] &&
                             value == m.ArchiveValue(a, round + m.shift),
                         [&] { return st.ToString(); });
    }
    // A short scan of the snapshot.
    {
      auto cursor = snap.NewCursor();
      const uint32_t start = static_cast<uint32_t>(rng.Below(kKeys));
      const int64_t s0 = NowNs();
      Status st;
      {
        Span span(kCursorSeek);
        st = cursor->Seek(m.sorted_keys[start]);
      }
      int n = 0;
      bool ordered = st.ok();
      while (st.ok() && cursor->Valid() && n < kScanLength) {
        uint32_t key = 0;
        uint64_t t = 0;
        ordered = ordered && start + n < kKeys &&
                  cursor->key() == Slice(m.sorted_keys[start + n]) &&
                  ParseValue(cursor->value(), &key, &t) && key < kKeys &&
                  cursor->key() == Slice(m.keys[key]) &&
                  cursor->value() == Slice(m.Value(key, static_cast<uint32_t>(t)));
        out->seen.push_back({key, static_cast<uint32_t>(at),
                             static_cast<uint32_t>(cursor->ts()), static_cast<uint32_t>(t)});
        ++n;
        Span span(kCursorNext);
        st = cursor->Next();
      }
      out->scan_rates.push_back(static_cast<float>(n / ((NowNs() - s0) / 1e9)));
      if (!st.ok()) ++out->errors;
      const int expect = static_cast<int>(std::min<uint32_t>(kScanLength, kKeys - start));
      out->checks.Expect("sharded.scan", ordered && n == expect + static_cast<int>(m.shift));
    }
    // One archive key's history as of the snapshot, newest first: every
    // round, each at its commit time.
    {
      auto cursor = snap.NewCursor();
      const uint32_t a = static_cast<uint32_t>(rng.Below(kArchiveKeys));
      const int64_t w0 = NowNs();
      Status st;
      {
        Span span(kCursorSeek);
        st = cursor->Seek(m.archive_keys[a]);
      }
      uint32_t count = 0;
      bool ordered = st.ok() && cursor->Valid();
      while (st.ok() && cursor->Valid()) {
        const uint32_t round = kArchiveRounds - 1 - count;
        ordered = ordered && count < kArchiveRounds &&
                  cursor->key() == Slice(m.archive_keys[a]) &&
                  cursor->ts() == m.archive_ts[round] &&
                  cursor->value() == Slice(m.ArchiveValue(a, round + m.shift));
        ++count;
        Span span(kCursorNextVersion);
        st = cursor->NextVersion();
      }
      out->walk_rates.push_back(static_cast<float>(count / ((NowNs() - w0) / 1e9)));
      if (!st.ok()) ++out->errors;
      out->checks.Expect("sharded.history_order", ordered);
      out->checks.Expect("sharded.history_walk", count == kArchiveRounds + m.shift);
    }
    out->ops += 1 + (tag != 0 ? kBatch - 1 : 0) + 3;
  }
}

/// After the window: every observation must be the newest acked version
/// of its key at its snapshot time.
void CheckObservations(const Model& m, const History& h, ReaderOut* out) {
  auto newest = [&](uint32_t key, uint32_t at) -> const Ack* {
    const auto& list = h[key];
    auto it = std::upper_bound(list.begin(), list.end(), at,
                               [](uint32_t t, const Ack& a) { return t < a.ts; });
    return it == list.begin() ? nullptr : &*(it - 1);
  };
  for (const Observation& o : out->seen) {
    const Ack* a = newest(o.key, o.at);
    out->checks.Expect("sharded.observed_version",
                       a != nullptr && a->ts == o.ts && a->tag + m.shift == o.tag);
  }
  out->seen.clear();
  out->seen.shrink_to_fit();
}

void WorkloadProcess(const Args& args, const std::string& path, Model& m) {
  Report report;
  Session<ShardedDB> session(args, path, "sharded_mixed", &report, false);
  ShardedDB* db = session.db();
  Status s;
  const uint32_t shards = db->num_shards();

  std::vector<std::vector<Ack>> acks(kWriters);
  std::vector<Samples> single(kWriters), multi(kWriters);
  std::vector<std::vector<uint64_t>> touched(kWriters, std::vector<uint64_t>(shards, 0));
  std::vector<uint64_t> failed(kWriters, 0), conflicts(kWriters, 0);
  std::vector<ReaderOut> readers(kReaders);
  std::vector<uint32_t> next_batch(kWriters, 1);
  const int64_t start = NowNs();
  std::atomic<int64_t> commit_budget(
      static_cast<int64_t>(args.seconds * kCommitsPerWriterSecond * kWriters));
  std::atomic<int64_t> read_budget(
      static_cast<int64_t>(args.seconds * kRoundsPerReaderSecond * kReaders));
  std::vector<Pacer> pacers;
  for (int t = 0; t < kWriters + kReaders; ++t) {
    pacers.emplace_back(args, t, 0, t < kWriters ? &commit_budget : &read_budget);
  }
  // When each client finished: the writers' and the readers' rates are
  // taken over their own part of the window.
  std::vector<int64_t> finished(kWriters + kReaders, 0);
  std::vector<RateSlices> slices(kWriters, RateSlices(start));
  // Room for every observation and sample a reader can make up front: a
  // vector that doubles while the readers run would move peak_rss_mb by
  // however much its last copy happened to hold.
  const size_t max_rounds = static_cast<size_t>(read_budget.load());
  for (ReaderOut& o : readers) {
    o.reads = RateSlices(start);
    o.seen.reserve(max_rounds * (kBatch + kScanLength));
    o.current.us.reserve(max_rounds * kBatch);
    o.asof.us.reserve(max_rounds);
    o.scan_rates.reserve(max_rounds);
    o.walk_rates.reserve(max_rounds);
  }
  RunThreads(kWriters + kReaders, [&](int t) {
    if (t >= kWriters) {
      ReaderLoop(db, m, t - kWriters, &pacers[t], &readers[t - kWriters]);
      finished[t] = NowNs();
      return;
    }
    const int w = t;
    WriteBatch batch;
    while (pacers[w].Next()) {
      const uint32_t j = next_batch[w]++;
      uint32_t keys[kBatch];
      m.BatchKeys(w, j, keys);
      batch.Clear();
      std::vector<bool> hit(shards, false);
      for (uint32_t k : keys) {
        batch.Put(m.keys[k], m.Value(k, Tag(w, j)));
        hit[db->ShardOf(m.keys[k])] = true;
      }
      const bool is_multi = std::count(hit.begin(), hit.end(), true) > 1;
      Timestamp ts = 0;
      const Status st = Timed(kWrite, is_multi ? &multi[w] : &single[w],
                              [&] { return db->Write(batch, &ts); });
      if (st.ok()) {
        acks[w].push_back({Tag(w, j), static_cast<uint32_t>(ts)});
        slices[w].Add();
        for (uint32_t i = 0; i < shards; ++i) touched[w][i] += hit[i];
      } else {
        ++failed[w];
        if (st.IsTxnConflict()) ++conflicts[w];
      }
    }
    finished[t] = NowNs();
  });

  const int64_t writers_end = *std::max_element(finished.begin(), finished.begin() + kWriters);
  const int64_t readers_end = *std::max_element(finished.begin() + kWriters, finished.end());
  for (int t = 0; t < kWriters + kReaders; ++t) {
    report.Add("rounds." + std::to_string(t), static_cast<double>(pacers[t].rounds()));
  }
  Samples commit, single_all, multi_all;
  std::vector<Ack> all;
  std::vector<uint64_t> per_shard(shards, 0);
  for (int w = 0; w < kWriters; ++w) {
    single_all.Merge(single[w]);
    multi_all.Merge(multi[w]);
    all.insert(all.end(), acks[w].begin(), acks[w].end());
    report.failed += failed[w];
    report.Add("txn.conflicts", static_cast<double>(conflicts[w]));
    for (uint32_t i = 0; i < shards; ++i) per_shard[i] += touched[w][i];
  }
  commit.Merge(single_all);
  commit.Merge(multi_all);
  const uint64_t commits = all.size();
  report.attempted += commits + report.failed;
  RateSlices commit_slices(start);
  for (const RateSlices& s : slices) commit_slices.Merge(s);
  report.Metric("commit_rate", commit_slices.Rate(writers_end), "1/s");
  report.Latency("commit", commit);
  report.Add("shard.single_commit_p50_us", Summarize(single_all).p50);
  report.Add("shard.multi_commit_p50_us", Summarize(multi_all).p50);
  report.Add("shard.multi_shard_commits", static_cast<double>(multi_all.us.size()));
  double sum = 0, busiest = 0;
  for (uint64_t c : per_shard) {
    sum += static_cast<double>(c);
    busiest = std::max(busiest, static_cast<double>(c));
  }
  report.Add("shard.commit_skew", sum == 0 ? 0 : busiest / (sum / shards));

  const History h = BuildHistory(m, all);
  Samples current, asof;
  RateSlices reads(start);
  std::vector<float> walk_rates, scan_rates;
  for (ReaderOut& o : readers) {
    CheckObservations(m, h, &o);
    report.checks.Merge(o.checks);
    current.Merge(o.current);
    asof.Merge(o.asof);
    reads.Merge(o.reads);
    report.attempted += o.ops;
    report.failed += o.errors;
    walk_rates.insert(walk_rates.end(), o.walk_rates.begin(), o.walk_rates.end());
    scan_rates.insert(scan_rates.end(), o.scan_rates.begin(), o.scan_rates.end());
  }
  report.Add("gets.current", static_cast<double>(current.us.size()));
  report.Add("gets.asof", static_cast<double>(asof.us.size()));
  report.Latency("get_current", current);
  report.Latency("get_asof", asof);
  report.Metric("read_rate", reads.Rate(readers_end), "1/s");
  report.Metric("history_rate", MedianRate(walk_rates), "1/s");
  report.Metric("scan_rate", MedianRate(scan_rates), "1/s");

  // Quiesce, checkpoint, then a tail of kTailCommits cross-shard commits
  // after the last checkpoint of every shard.
  {
    Span span(kCheckpoint);
    s = db->Checkpoint();
  }
  if (!s.ok()) Die("sharded_mixed: checkpoint", s);
  std::vector<uint64_t> lsn(shards);
  for (uint32_t i = 0; i < shards; ++i) lsn[i] = db->shard(i)->wal()->appended_lsn();
  WriteBatch batch;
  uint64_t tail = 0;
  for (int since = 0; since < kTailCommits; ++since) {
    uint32_t j;
    do {
      j = next_batch[0]++;
    } while (j % 4 == 0);  // cross-shard batches only
    uint32_t keys[kBatch];
    m.BatchKeys(0, j, keys);
    batch.Clear();
    for (uint32_t k : keys) batch.Put(m.keys[k], m.Value(k, Tag(0, j)));
    Timestamp ts = 0;
    {
      Span span(kWrite);
      s = db->Write(batch, &ts);
    }
    ++report.attempted;
    if (!s.ok()) Die("sharded_mixed: tail commit", s);
    all.push_back({Tag(0, j), static_cast<uint32_t>(ts)});
    ++tail;
    for (uint32_t i = 0; i < shards; ++i) {
      if (RotatedLog(db->shard(i), &lsn[i])) since = -1;
    }
  }
  session.Close("workload");
  double user_bytes = 0;
  for (const Ack& a : all) {
    uint32_t keys[kBatch];
    m.BatchKeys(TagWriter(a.tag), TagBatch(a.tag), keys);
    for (uint32_t k : keys) user_bytes += 16.0 + static_cast<double>(ValueLen(m.seed, k));
  }
  report.Add("commits", static_cast<double>(commits + tail));
  report.Add("user_bytes", user_bytes);
  EndChild(args, "sharded_mixed", report, all);  // the database is deliberately never closed
}

}  // namespace

void RunShardedMixed(const Args& args, Report* report) {
  Model m;
  m.seed = args.seed;
  m.shift = args.wrong_model ? 1 : 0;
  for (uint32_t k = 0; k < kKeys; ++k) m.keys.push_back(KeyOf(m.seed, k));
  m.sorted_keys = m.keys;
  std::sort(m.sorted_keys.begin(), m.sorted_keys.end());
  for (uint32_t i = 0; i < kArchiveKeys; ++i) m.archive_keys.push_back(ArchiveKeyOf(m.seed, i));

  std::string path;
  SetUp<ShardedDB>(args, "sharded_mixed", kSetUps, report, &path, [&](ShardedDB* db) {
    WriteBatch batch;
    for (uint32_t r = 0; r < kArchiveRounds; ++r) {
      batch.Clear();
      for (uint32_t i = 0; i < kArchiveKeys; ++i) {
        batch.Put(m.archive_keys[i], m.ArchiveValue(i, r));
      }
      if (!db->Write(batch, &m.archive_ts[r]).ok()) return false;
    }
    batch.Clear();
    for (uint32_t k = 0; k < kKeys; ++k) batch.Put(m.keys[k], m.Value(k, 0));
    if (!db->Write(batch, &m.preload_ts).ok()) return false;
    for (int w = 0; w < kWriters; ++w) {
      m.owned[w].assign(db->num_shards(), {});
      for (uint32_t k = w; k < kKeys; k += kWriters) {
        m.owned[w][db->ShardOf(m.keys[k])].push_back(k);
      }
    }
    return true;
  });

  const std::vector<Ack> acks = RunChild<Ack>(args, "sharded_mixed", report, [&] {
    WorkloadProcess(args, path, m);
  });
  const History h = BuildHistory(m, acks);

  Session<ShardedDB> session(args, path, "sharded_mixed", report, true);
  ShardedDB* db = session.db();
  const tsb::tsb_tree::SpaceStats total = session.Space();
  uint64_t versions = uint64_t{kArchiveKeys} * kArchiveRounds;
  double user_bytes = m.ArchiveUserBytes();
  for (uint32_t k = 0; k < kKeys; ++k) {
    versions += h[k].size();
    user_bytes += h[k].size() * (16.0 + static_cast<double>(ValueLen(m.seed, k)));
  }
  report->checks.Expect("sharded.logical_versions",
                        total.logical_versions == versions + m.shift);
  ReportSpace(total, user_bytes, report);

  // Durability: every key's newest acked version survived the kill.
  std::string value;
  for (uint32_t k = 0; k < kKeys; ++k) {
    Timestamp ts = 0;
    const Status s = db->Get(ReadOptions(), m.keys[k], &value, &ts);
    const Ack& last = h[k].back();
    report->checks.Expect("sharded.recovered_state",
                          s.ok() && ts == last.ts && value == m.Value(k, last.tag + m.shift));
  }
  for (uint32_t i = 0; i < kArchiveKeys; ++i) {
    Timestamp ts = 0;
    const Status s = db->Get(ReadOptions(), m.archive_keys[i], &value, &ts);
    report->checks.Expect("sharded.recovered_state",
                          s.ok() && ts == m.archive_ts[kArchiveRounds - 1] &&
                              value == m.ArchiveValue(i, kArchiveRounds - 1 + m.shift));
  }
  report->attempted += kKeys + kArchiveKeys;
  session.Close("recovery");
}

}  // namespace mvbench
