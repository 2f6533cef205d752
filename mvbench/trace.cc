#include "trace.h"

#include <dirent.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mvbench {
namespace {

const char* const kNames[kNumSpanNames] = {
    "db.write",         "db.get_current",     "db.get_asof",
    "cursor.seek",      "cursor.next",        "cursor.next_version",
    "db.checkpoint",    "db.open",            "device.magnetic.read",
    "device.magnetic.write", "device.magnetic.sync", "device.historical.read",
    "device.historical.write", "device.historical.sync",
};

struct SpanRecord {
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  int64_t start;
  int64_t end;
  uint64_t bytes;
  uint16_t name;
};

struct ThreadBuffer {
  std::vector<SpanRecord> spans;
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by g_buffers_mu

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  std::vector<uint64_t> stack;  // open span ids
  uint64_t request = 0;
};
thread_local ThreadState t_state;

ThreadBuffer* Buffer() {
  if (t_state.buffer == nullptr) {
    auto b = std::make_unique<ThreadBuffer>();
    b->spans.reserve(1 << 14);
    t_state.buffer = b.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(b));
  }
  return t_state.buffer;
}

class TracingDevice : public tsb::Device {
 public:
  TracingDevice(bool historical, std::unique_ptr<tsb::Device> inner)
      : Device(inner->kind(), inner->cost_params()),
        read_(historical ? kHistoricalRead : kMagneticRead),
        write_(historical ? kHistoricalWrite : kMagneticWrite),
        sync_(historical ? kHistoricalSync : kMagneticSync),
        inner_(std::move(inner)) {}

  Status Read(uint64_t offset, size_t n, char* scratch) override {
    Span s(read_, n);
    return inner_->Read(offset, n, scratch);
  }
  Status Write(uint64_t offset, const Slice& data) override {
    Span s(write_, data.size());
    return inner_->Write(offset, data);
  }
  bool SupportsMappedReads() const override {
    return inner_->SupportsMappedReads();
  }
  Status ReadMapped(uint64_t offset, size_t n, tsb::MappedRead* out,
                    tsb::AccessPattern pattern) override {
    Span s(read_, n);
    return inner_->ReadMapped(offset, n, out, pattern);
  }
  uint32_t write_once_sector_size() const override {
    return inner_->write_once_sector_size();
  }
  uint64_t Size() const override { return inner_->Size(); }
  Status Truncate(uint64_t size) override { return inner_->Truncate(size); }
  Status Sync() override {
    Span s(sync_);
    return inner_->Sync();
  }

 private:
  const SpanName read_;
  const SpanName write_;
  const SpanName sync_;
  std::unique_ptr<tsb::Device> inner_;
};

}  // namespace

void EnableTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }

Span::Span(SpanName name, uint64_t bytes)
    : on_(g_on.load(std::memory_order_relaxed)), name_(name), bytes_(bytes) {
  if (!on_) return;
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (t_state.stack.empty()) {
    t_state.request = id_;
  } else {
    parent_ = t_state.stack.back();
  }
  t_state.stack.push_back(id_);
  start_ = NowNs();
}

Span::~Span() {
  if (!on_) return;
  const int64_t end = NowNs();
  t_state.stack.pop_back();
  Buffer()->spans.push_back(
      {id_, parent_, t_state.request, start_, end, bytes_, name_});
}

bool DumpSpans(const std::string& path) {
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers.swap(g_buffers);
  }
  t_state.buffer = nullptr;
  FILE* f = fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = true;
  for (const auto& b : buffers) {
    if (!b->spans.empty() &&
        fwrite(b->spans.data(), sizeof(SpanRecord), b->spans.size(), f) !=
            b->spans.size()) {
      ok = false;
    }
  }
  return fclose(f) == 0 && ok;
}

namespace {

bool LoadSpans(const std::string& path, std::vector<SpanRecord>* out) {
  FILE* f = fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  SpanRecord r;
  while (fread(&r, sizeof(r), 1, f) == 1) {
    if (r.name >= kNumSpanNames) {
      fclose(f);
      return false;
    }
    out->push_back(r);
  }
  fclose(f);
  return true;
}

void AggregateOne(const std::vector<SpanRecord>& spans, Report* report) {
  std::unordered_map<uint64_t, int64_t> child_ns;
  child_ns.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ns[s.parent] += s.end - s.start;
  }
  // A checkpoint flushes historical blobs first (one historical Sync)
  // and ends with the magnetic Sync; the interval between them, within
  // one request, is the checkpoint's flush time as seen from outside.
  std::unordered_map<uint64_t, int64_t> hist_sync_start;
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const SpanRecord& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->start < b->start;
            });
  for (const SpanRecord* s : order) {
    const std::string base = std::string("span.") + kNames[s->name];
    const int64_t dur = s->end - s->start;
    auto it = child_ns.find(s->id);
    const int64_t self = dur - (it == child_ns.end() ? 0 : it->second);
    report->Add(base + ".count", 1);
    report->Add(base + ".ns", static_cast<double>(dur));
    report->Add(base + ".self_ns", static_cast<double>(self));
    report->Add(base + ".bytes", static_cast<double>(s->bytes));
    if (s->name == kHistoricalSync) {
      hist_sync_start.emplace(s->request, s->start);
    } else if (s->name == kMagneticSync) {
      auto h = hist_sync_start.find(s->request);
      if (h != hist_sync_start.end()) {
        report->Add("span.checkpoint.count", 1);
        report->Add("span.checkpoint.ns",
                    static_cast<double>(s->end - h->second));
        hist_sync_start.erase(h);
      }
    }
  }
}

}  // namespace

bool AggregateSpans(const std::string& dir, Report* report) {
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return false;
  std::vector<std::string> files;
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.rfind("spans-", 0) == 0) files.push_back(dir + "/" + name);
  }
  closedir(d);
  for (const std::string& file : files) {
    std::vector<SpanRecord> spans;
    if (!LoadSpans(file, &spans)) return false;
    AggregateOne(spans, report);
  }
  return true;
}

std::unique_ptr<tsb::Device> WrapTracing(const std::string& role,
                                         std::unique_ptr<tsb::Device> inner) {
  const bool historical =
      role.size() >= 10 && role.compare(role.size() - 10, 10, "historical") == 0;
  return std::make_unique<TracingDevice>(historical, std::move(inner));
}

}  // namespace mvbench
