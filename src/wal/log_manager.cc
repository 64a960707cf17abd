#include "wal/log_manager.h"

#include <cstring>

#include "common/checksum.h"
#include "storage/fault_injector.h"

namespace spitfire {

namespace {
struct FileHeader {
  uint32_t magic;
  uint32_t pad;
  uint64_t version;        // slot with the larger valid version wins
  uint64_t length;         // durable record bytes after kLogDataOffset
  uint64_t checkpoint_ts;  // durable redo horizon
  uint64_t checksum;       // Checksum64 over the fields above

  void Stamp() {
    checksum = 0;
    checksum = Checksum64(this, sizeof(*this));
  }
  bool Valid(uint32_t magic_want) const {
    if (magic != magic_want) return false;
    FileHeader copy = *this;
    copy.checksum = 0;
    return Checksum64(&copy, sizeof(copy)) == checksum;
  }
};
// Two header slots in the log device's first page, written alternately.
constexpr uint64_t kHeaderSlotStride = 128;
static_assert(sizeof(FileHeader) <= kHeaderSlotStride);
}  // namespace

LogManager::LogManager(const Options& opts) : opts_(opts) {
  SPITFIRE_CHECK(opts_.nvm != nullptr);
  SPITFIRE_CHECK(opts_.log_ssd != nullptr);
  staging_ = std::make_unique<NvmLogBuffer>(opts_.nvm, opts_.nvm_offset,
                                            opts_.nvm_size);
}

Result<std::unique_ptr<LogManager>> LogManager::Create(const Options& opts) {
  auto lm = std::unique_ptr<LogManager>(new LogManager(opts));
  SPITFIRE_RETURN_NOT_OK(lm->staging_->Format(/*base_lsn=*/0));
  lm->file_bytes_ = 0;
  // Invalidate both header slots (the device may hold a stale log) before
  // stamping version 1.
  FileHeader zero{};
  for (int slot = 0; slot < 2; ++slot) {
    SPITFIRE_RETURN_NOT_OK(
        opts.log_ssd->Write(slot * kHeaderSlotStride, &zero, sizeof(zero)));
  }
  SPITFIRE_RETURN_NOT_OK(lm->WriteFileHeader());
  return lm;
}

Result<std::unique_ptr<LogManager>> LogManager::Attach(const Options& opts) {
  auto lm = std::unique_ptr<LogManager>(new LogManager(opts));
  SPITFIRE_RETURN_NOT_OK(lm->ReadFileHeader());
  const Status staging_st = lm->staging_->Attach();
  if (!staging_st.ok()) {
    if (opts.nvm->profile().persistent) return staging_st;
    // Volatile staging (DRAM-SSD hierarchy): its content is legitimately
    // lost in a crash — commits forced a drain, so the SSD file is
    // complete. Re-format the staging area to continue after the file.
    SPITFIRE_RETURN_NOT_OK(lm->staging_->Format(lm->file_bytes_));
  }
  // The staged region may begin BEFORE the durable file end: a crash
  // between the drain's file append and the staging consume leaves the
  // drained records in both places. That overlap is legal — the next
  // drain rewrites the same bytes at the same offsets. A staged region
  // beginning past the file end would mean lost records, which the drain
  // protocol makes impossible.
  if (lm->staging_->base_lsn() > lm->file_bytes_) {
    return Status::Corruption("gap between durable log file and staging");
  }
  return lm;
}

Status LogManager::WriteFileHeader() {
  FileHeader h{};
  h.magic = kLogMagic;
  h.version = ++header_version_;
  h.length = file_bytes_;
  h.checkpoint_ts = horizon_ts_;
  h.Stamp();
  const uint64_t off = (h.version % 2) * kHeaderSlotStride;
  SPITFIRE_RETURN_NOT_OK(opts_.log_ssd->Write(off, &h, sizeof(h)));
  return opts_.log_ssd->Persist(off, sizeof(h));
}

Status LogManager::ReadFileHeader() {
  const FileHeader* best = nullptr;
  FileHeader slots[2];
  for (int i = 0; i < 2; ++i) {
    SPITFIRE_RETURN_NOT_OK(opts_.log_ssd->Read(i * kHeaderSlotStride,
                                               &slots[i], sizeof(slots[i])));
    if (slots[i].Valid(kLogMagic) &&
        (best == nullptr || slots[i].version > best->version)) {
      best = &slots[i];
    }
  }
  if (best == nullptr) return Status::Corruption("log file header");
  if (kLogDataOffset + best->length > opts_.log_ssd->capacity()) {
    return Status::Corruption("log file header length exceeds device");
  }
  file_bytes_ = best->length;
  horizon_ts_ = best->checkpoint_ts;
  header_version_ = best->version;
  return Status::OK();
}

Status LogManager::SetDurableHorizon(timestamp_t ts) {
  std::lock_guard<std::mutex> g(drain_mu_);
  horizon_ts_ = ts;
  return WriteFileHeader();
}

Result<lsn_t> LogManager::Append(const LogRecord& record) {
  std::vector<std::byte> buf;
  buf.reserve(record.SerializedSize());
  record.SerializeTo(&buf);
  if (buf.size() > staging_->capacity()) {
    return Status::OutOfMemory("log record larger than NVM buffer");
  }
  std::unique_lock<std::mutex> l(group_mu_);
  // A group never outgrows the staging buffer, so its payload persists
  // with ONE atomic staging append (no torn groups on crash). A full
  // group closes to new joiners; its leader persists it as formed.
  if (open_group_ != nullptr &&
      open_group_->bytes.size() + buf.size() > staging_->capacity()) {
    open_group_.reset();
  }
  if (open_group_ == nullptr) {
    // Leader: open generation g and wait for g-1 to become durable.
    // The group keeps accumulating followers while we wait — that wait
    // IS the batching window, sized by upstream persist latency.
    auto g = std::make_shared<CommitGroup>();
    g->gen = next_gen_++;
    g->bytes = std::move(buf);
    g->records = 1;
    open_group_ = g;
    group_cv_.wait(l, [&] { return durable_gen_ == g->gen - 1; });
    if (open_group_ == g) open_group_.reset();  // close to joiners
    std::vector<std::byte> payload;
    payload.swap(g->bytes);
    l.unlock();
    lsn_t base = 0;
    const Status st = PersistGroup(payload, &base);
    l.lock();
    g->base_lsn = base;
    g->status = st;
    g->done = true;
    // The epoch advances even on failure so later groups are not stuck
    // behind a failed one; the error goes to every member of this group.
    durable_gen_ = g->gen;
    group_cv_.notify_all();
    l.unlock();
    if (!st.ok()) return st;
    (void)MaybeDrain();
    return base;
  }
  // Follower: stash the record in the open group and sleep until its
  // leader reports the group durable.
  std::shared_ptr<CommitGroup> g = open_group_;
  const size_t off = g->bytes.size();
  g->bytes.insert(g->bytes.end(), buf.begin(), buf.end());
  g->records++;
  group_cv_.wait(l, [&] { return g->done; });
  if (!g->status.ok()) return g->status;
  return g->base_lsn + off;
}

Status LogManager::PersistGroup(const std::vector<std::byte>& payload,
                                lsn_t* base) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    Result<lsn_t> r = staging_->Append(payload.data(), payload.size());
    if (r.ok()) {
      *base = r.value();
      return Status::OK();
    }
    if (!r.status().IsOutOfMemory()) return r.status();
    SPITFIRE_RETURN_NOT_OK(Drain());
  }
  return Status::OutOfMemory("log group larger than NVM buffer");
}

Status LogManager::Drain() {
  std::lock_guard<std::mutex> g(drain_mu_);
  std::vector<std::byte> bytes;
  Result<lsn_t> first = staging_->Peek(&bytes);
  SPITFIRE_RETURN_NOT_OK(first.status());
  if (bytes.empty()) return Status::OK();
  const lsn_t base = first.value();
  // base < file_bytes_ happens after a crash between the file append and
  // the staging consume: the front of the staged range is already in the
  // file and is simply rewritten with identical bytes (which also repairs
  // a torn first attempt). base > file_bytes_ would be a hole.
  if (base > file_bytes_) {
    return Status::Corruption("staged log bytes past durable file end");
  }
  if (kLogDataOffset + base + bytes.size() > opts_.log_ssd->capacity()) {
    return Status::IoError("log device full");
  }
  SPITFIRE_RETURN_NOT_OK(
      opts_.log_ssd->Write(kLogDataOffset + base, bytes.data(), bytes.size()));
  SPITFIRE_RETURN_NOT_OK(
      opts_.log_ssd->Persist(kLogDataOffset + base, bytes.size()));
  FaultInjector::Point("wal.drain.file_written");
  const uint64_t end = base + bytes.size();
  if (end > file_bytes_) {
    file_bytes_ = end;
    SPITFIRE_RETURN_NOT_OK(WriteFileHeader());
  }
  FaultInjector::Point("wal.drain.header_written");
  // Consume the staging buffer LAST: every byte it held is now durable in
  // the file and recorded by the header.
  return staging_->MarkDrained(bytes.size());
}

Status LogManager::MaybeDrain() {
  if (staging_->StagedBytes() < kDrainThreshold) return Status::OK();
  return Drain();
}

Result<std::vector<LogRecord>> LogManager::ReadAll() {
  // Move the persistent staged tail into the file first (Section 5.2:
  // "the NVM log buffer needs to be appended to the log file since the
  // buffer is persistent") via the crash-safe drain protocol, then read
  // the complete file.
  SPITFIRE_RETURN_NOT_OK(Drain());
  std::vector<std::byte> bytes;
  {
    std::lock_guard<std::mutex> g(drain_mu_);
    bytes.resize(file_bytes_);
    if (file_bytes_ > 0) {
      SPITFIRE_RETURN_NOT_OK(
          opts_.log_ssd->Read(kLogDataOffset, bytes.data(), file_bytes_));
    }
  }
  std::vector<LogRecord> records;
  size_t pos = 0;
  while (pos < bytes.size()) {
    size_t consumed = 0;
    Result<LogRecord> r =
        LogRecord::Deserialize(bytes.data() + pos, bytes.size() - pos,
                               &consumed);
    if (!r.ok()) return r.status();
    records.push_back(r.MoveValue());
    pos += consumed;
  }
  return records;
}

}  // namespace spitfire
