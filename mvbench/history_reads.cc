// history_reads: set-up writes kRounds versions of every key, so the
// current pages are many times the 256-frame (1 MiB) buffer pool and the
// historical nodes far exceed the 8-blob cache (the set-up builds give
// the workload's commit figures). A writer process then commits a
// fixed-length tail and is SIGKILLed; the parent times the recovering Open
// and runs three reader threads, with no writers, that mix current Gets,
// as-of Gets at past timestamps, NextVersion walks of one key's history
// and short as-of VersionCursor range scans. Values are a function of
// (key, round), so every expected read is computed from the model.
#include <algorithm>
#include <cstdio>

#include "trace.h"
#include "workloads.h"

namespace mvbench {
namespace {

using tsb::db::MultiVersionDB;
using tsb::db::ReadOptions;
using tsb::db::WriteBatch;

constexpr uint32_t kKeys = 24576;
constexpr uint32_t kRounds = 5;         // versions per key written in set-up
// Builds commit 512 keys at a time: with 64-key batches a build's 1920
// fdatasyncs made setup_s follow the shared disk's latency (2.8-7.1 s over
// ten seeds, quartile spread 0.47); at 512 a build is 240 commits and
// mostly CPU.
constexpr uint32_t kBuildBatch = 512;
// setup_s is the median of this many builds (~2.7 s each).
constexpr int kSetUps = 7;
constexpr uint32_t kTailCommits = 600;  // frames the recovering Open replays
constexpr uint32_t kTailBatch = 16;
constexpr int kScanLength = 16;
// Three readers, not four: with four CPU-bound readers on the 4-vCPU
// reference machine every stolen vCPU stalls one of them, and read_rate
// spread 0.33 (quartile distance over median, 5 seeds) against 0.09 with
// three.
constexpr int kReaders = 3;
// One reader round: these many of each operation, in this order.
constexpr int kCurrentPerRound = 4;
constexpr int kAsOfPerRound = 4;

size_t ValueLen(uint64_t seed, uint32_t key) {
  return 100 + Mix(seed, key, 0x4e) % 201;
}

/// The model: commit timestamp of (key, round); 0 = never written.
struct Model {
  uint64_t seed = 0;
  uint32_t shift = 0;  // wrong-model self-test: expect the next round
  std::vector<std::string> sorted_keys;
  std::vector<uint32_t> key_at;  // sorted position -> key number
  std::vector<uint32_t> pos_of;  // key number -> sorted position
  std::vector<Timestamp> ts;     // [key * (kRounds + 1) + round]
  Timestamp round_end[kRounds] = {};

  Timestamp& At(uint32_t key, uint32_t round) { return ts[key * (kRounds + 1) + round]; }
  Timestamp At(uint32_t key, uint32_t round) const {
    return ts[key * (kRounds + 1) + round];
  }
  uint32_t Rounds(uint32_t key) const { return At(key, kRounds) != 0 ? kRounds + 1 : kRounds; }
  /// The round whose version is visible at `t` (t >= the key's first ts).
  uint32_t RoundAt(uint32_t key, Timestamp t) const {
    uint32_t r = 0;
    while (r + 1 < Rounds(key) && At(key, r + 1) <= t) ++r;
    return r;
  }
  std::string Value(uint32_t key, uint32_t round) const {
    return ValueOf(seed, key, round + shift, ValueLen(seed, key));
  }
};

/// The writer process: the fixed tail (round kRounds for the first
/// kTailCommits * kTailBatch keys in key order), then SIGKILL.
void TailProcess(const Args& args, const std::string& path, const Model& m) {
  Report report;
  Session<MultiVersionDB> session(args, path, "history_reads", &report, false);
  MultiVersionDB* db = session.db();
  Status s;
  {
    Span span(kCheckpoint);
    s = db->Checkpoint();
  }
  if (!s.ok()) Die("history_reads: checkpoint", s);
  uint64_t lsn = db->wal()->appended_lsn();
  std::vector<Timestamp> acks;
  double user_bytes = 0;
  WriteBatch batch;
  for (uint32_t c = 0; c < kTailCommits; ++c) {
    batch.Clear();
    for (uint32_t p = c * kTailBatch; p < (c + 1) * kTailBatch; ++p) {
      const uint32_t k = m.key_at[p];
      const std::string value = ValueOf(m.seed, k, kRounds, ValueLen(m.seed, k));
      batch.Put(m.sorted_keys[p], value);
      user_bytes += 16.0 + static_cast<double>(value.size());
    }
    Timestamp ts = 0;
    {
      Span span(kWrite);
      s = db->Write(batch, &ts);
    }
    if (!s.ok()) Die("history_reads: tail commit", s);
    acks.push_back(ts);
    // The recovering Open must replay the whole tail; a size-triggered
    // checkpoint inside it would shorten the replay.
    if (RotatedLog(db, &lsn)) Die("history_reads: the log rotated during the tail");
  }
  report.attempted += kTailCommits;
  report.Add("commits", kTailCommits);
  report.Add("user_bytes", user_bytes);
  session.Close("writer");
  EndChild(args, "history_reads", report, acks);  // the database is deliberately never closed
}

struct ReaderOut {
  Checks checks;
  Samples current, asof;
  uint64_t ops = 0, errors = 0;
  std::vector<float> walk_rates, scan_rates;  // per walk / per scan
  RateSlices reads;                           // point reads completed
};

void ReaderLoop(MultiVersionDB* db, const Model& m, int t, Pacer* pacer,
                ReaderOut* out) {
  Rng rng(Mix(m.seed, 0x200 + t));
  std::string value;
  auto walker = db->NewCursor();
  const Timestamp first = m.round_end[0];
  const Timestamp last = db->Now();
  while (pacer->Next()) {
    for (int i = 0; i < kCurrentPerRound; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.Below(kKeys));
      const uint32_t r = m.Rounds(k) - 1;
      Timestamp ts = 0;
      const Status st = Timed(kGetCurrent, &out->current, [&] {
        return db->Get(ReadOptions(), m.sorted_keys[m.pos_of[k]], &value, &ts);
      });
      if (!st.ok()) ++out->errors;
      out->checks.Expect("history.current_get",
                         st.ok() && ts == m.At(k, r) && value == m.Value(k, r));
    }
    for (int i = 0; i < kAsOfPerRound; ++i) {
      const uint32_t k = static_cast<uint32_t>(rng.Below(kKeys));
      ReadOptions ro;
      ro.as_of = first + rng.Below(last - first + 1);
      const uint32_t r = m.RoundAt(k, ro.as_of);
      Timestamp ts = 0;
      const Status st = Timed(kGetAsOf, &out->asof, [&] {
        return db->Get(ro, m.sorted_keys[m.pos_of[k]], &value, &ts);
      });
      if (!st.ok()) ++out->errors;
      out->checks.Expect("history.asof_get",
                         st.ok() && ts == m.At(k, r) && value == m.Value(k, r),
                         [&] { return "key " + std::to_string(k) + " as of " + std::to_string(ro.as_of) + ": " + st.ToString(); });
    }
    out->reads.Add(kCurrentPerRound + kAsOfPerRound);
    {  // one key's whole history, newest first
      const uint32_t k = static_cast<uint32_t>(rng.Below(kKeys));
      const std::string& key = m.sorted_keys[m.pos_of[k]];
      const int64_t w0 = NowNs();
      Status st;
      {
        Span span(kCursorSeek);
        st = walker->Seek(key);
      }
      uint32_t seen = 0;
      bool match = st.ok() && walker->Valid() && walker->key() == Slice(key);
      while (st.ok() && walker->Valid()) {
        const uint32_t r = m.Rounds(k) - 1 - seen;
        match = match && seen < m.Rounds(k) && walker->ts() == m.At(k, r) &&
                walker->value() == Slice(m.Value(k, r));
        ++seen;
        Span span(kCursorNextVersion);
        st = walker->NextVersion();
      }
      out->walk_rates.push_back(static_cast<float>(seen / ((NowNs() - w0) / 1e9)));
      if (!st.ok()) ++out->errors;
      out->checks.Expect("history.walk", match && seen == m.Rounds(k));
    }
    {  // a short range scan as of the end of a random set-up round
      const uint32_t r = static_cast<uint32_t>(rng.Below(kRounds));
      ReadOptions ro;
      ro.as_of = m.round_end[r];
      auto cursor = db->NewCursor(ro);
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
        const uint32_t p = start + n;
        ordered = ordered && p < kKeys && cursor->key() == Slice(m.sorted_keys[p]) &&
                  cursor->value() == Slice(m.Value(m.key_at[p], r));
        ++n;
        Span span(kCursorNext);
        st = cursor->Next();
      }
      out->scan_rates.push_back(static_cast<float>(n / ((NowNs() - s0) / 1e9)));
      if (!st.ok()) ++out->errors;
      const int expect = static_cast<int>(std::min<uint32_t>(kScanLength, kKeys - start));
      out->checks.Expect("history.scan", ordered && n == expect + static_cast<int>(m.shift));
    }
    out->ops += kCurrentPerRound + kAsOfPerRound + 2;
  }
}

}  // namespace

void RunHistoryReads(const Args& args, Report* report) {
  Model m;
  m.seed = args.seed;
  m.shift = args.wrong_model ? 1 : 0;
  m.ts.assign(static_cast<size_t>(kKeys) * (kRounds + 1), 0);
  std::vector<std::pair<std::string, uint32_t>> order;
  for (uint32_t k = 0; k < kKeys; ++k) order.push_back({KeyOf(m.seed, k), k});
  std::sort(order.begin(), order.end());
  m.pos_of.resize(kKeys);
  for (uint32_t p = 0; p < kKeys; ++p) {
    m.sorted_keys.push_back(order[p].first);
    m.key_at.push_back(order[p].second);
    m.pos_of[order[p].second] = p;
  }

  // ---- set-up: kRounds versions of every key, in key order, batches of
  // kBuildBatch (median of kSetUps builds)
  std::string path;
  Samples build_lat;
  std::vector<double> build_rates;
  SetUp<MultiVersionDB>(args, "history_reads", kSetUps, report, &path, [&](MultiVersionDB* db) {
    WriteBatch batch;
    RateSlices rate(NowNs());
    for (uint32_t r = 0; r < kRounds; ++r) {
      for (uint32_t first = 0; first < kKeys; first += kBuildBatch) {
        batch.Clear();
        for (uint32_t p = first; p < first + kBuildBatch; ++p) {
          const uint32_t k = m.key_at[p];
          batch.Put(m.sorted_keys[p], ValueOf(m.seed, k, r, ValueLen(m.seed, k)));
        }
        Timestamp ts = 0;
        if (!Timed(kWrite, &build_lat, [&] { return db->Write(batch, &ts); }).ok()) {
          return false;
        }
        rate.Add();
        for (uint32_t p = first; p < first + kBuildBatch; ++p) m.At(m.key_at[p], r) = ts;
        m.round_end[r] = ts;
      }
    }
    build_rates.push_back(rate.Rate(NowNs()));
    return true;
  });
  // This workload's commit figures are the set-up builds': one writer,
  // batches of kBuildBatch keys, into a database growing far past the pool.
  std::sort(build_rates.begin(), build_rates.end());
  report->Metric("commit_rate", build_rates[build_rates.size() / 2], "1/s");
  report->Latency("commit", build_lat);

  const std::vector<Timestamp> acks = RunChild<Timestamp>(args, "history_reads", report, [&] {
    TailProcess(args, path, m);
  });
  if (acks.size() != kTailCommits) Die("history_reads: the tail's acks are incomplete");
  for (uint32_t p = 0; p < kTailCommits * kTailBatch; ++p) {
    m.At(m.key_at[p], kRounds) = acks[p / kTailBatch];
  }

  // ---- recovering Open
  Session<MultiVersionDB> session(args, path, "history_reads", report, true);
  MultiVersionDB* db = session.db();
  const tsb::tsb_tree::SpaceStats space = session.Space();
  const uint64_t versions = static_cast<uint64_t>(kKeys) * kRounds + kTailCommits * kTailBatch;
  report->checks.Expect("history.logical_versions",
                        space.logical_versions == versions + m.shift);
  double user_bytes = 0;
  for (uint32_t k = 0; k < kKeys; ++k) {
    user_bytes += m.Rounds(k) * (16.0 + static_cast<double>(ValueLen(m.seed, k)));
  }
  ReportSpace(space, user_bytes, report);

  // ---- the timed reader window
  std::vector<ReaderOut> outs(kReaders);
  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(args.seconds * 1e9);
  std::vector<Pacer> pacers;
  for (int t = 0; t < kReaders; ++t) {
    pacers.emplace_back(args, t, deadline);
    outs[t].reads = RateSlices(start);
  }
  RunThreads(kReaders, [&](int t) {
    ReaderLoop(db, m, t, &pacers[t], &outs[t]);
  });
  const int64_t end = NowNs();
  for (int t = 0; t < kReaders; ++t) {
    report->Add("rounds." + std::to_string(t), static_cast<double>(pacers[t].rounds()));
  }
  session.Close("reader");

  Samples current, asof;
  RateSlices reads(start);
  std::vector<float> walk_rates, scan_rates;
  for (const ReaderOut& o : outs) {
    report->checks.Merge(o.checks);
    current.Merge(o.current);
    asof.Merge(o.asof);
    reads.Merge(o.reads);
    report->attempted += o.ops;
    report->failed += o.errors;
    walk_rates.insert(walk_rates.end(), o.walk_rates.begin(), o.walk_rates.end());
    scan_rates.insert(scan_rates.end(), o.scan_rates.begin(), o.scan_rates.end());
  }
  report->Add("gets.current", static_cast<double>(current.us.size()));
  report->Add("gets.asof", static_cast<double>(asof.us.size()));
  report->Latency("get_current", current);
  report->Latency("get_asof", asof);
  report->Metric("read_rate", reads.Rate(end), "1/s");
  report->Metric("history_rate", MedianRate(walk_rates), "1/s");
  report->Metric("scan_rate", MedianRate(scan_rates), "1/s");
}

}  // namespace mvbench
