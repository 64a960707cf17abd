#include "wal/log_record.h"

#include <cstdio>

namespace spitfire {

namespace {
// Fixed-size on-disk prefix of every record.
struct RecordPrefix {
  uint32_t magic;
  uint8_t type;
  uint8_t pad[3];
  txn_id_t txn_id;
  lsn_t prev_lsn;
  uint32_t table_id;
  uint32_t before_len;
  uint32_t offset;
  uint32_t after_len;
  uint64_t key;
  uint32_t total_len;  // prefix + payloads; enables forward scans
};
constexpr uint32_t kRecordMagic = 0x57414C52;  // "WALR"
}  // namespace

size_t LogRecord::SerializedSize() const {
  return sizeof(RecordPrefix) + before.size() + after.size();
}

void LogRecord::SerializeTo(std::byte* dst) const {
  RecordPrefix p{};
  p.magic = kRecordMagic;
  p.type = static_cast<uint8_t>(type);
  p.txn_id = txn_id;
  p.prev_lsn = prev_lsn;
  p.table_id = table_id;
  p.offset = offset;
  p.key = key;
  p.before_len = static_cast<uint32_t>(before.size());
  p.after_len = static_cast<uint32_t>(after.size());
  p.total_len = static_cast<uint32_t>(SerializedSize());
  std::memcpy(dst, &p, sizeof(p));
  std::byte* cur = dst + sizeof(p);
  if (!before.empty()) {
    std::memcpy(cur, before.data(), before.size());
    cur += before.size();
  }
  if (!after.empty()) {
    std::memcpy(cur, after.data(), after.size());
  }
}

void LogRecord::SerializeTo(std::vector<std::byte>* out) const {
  const size_t old = out->size();
  out->resize(old + SerializedSize());
  SerializeTo(out->data() + old);
}

Result<LogRecord> LogRecord::Deserialize(const std::byte* src, size_t len,
                                         size_t* consumed) {
  if (len < sizeof(RecordPrefix)) {
    return Status::Corruption("truncated log record prefix");
  }
  RecordPrefix p;
  std::memcpy(&p, src, sizeof(p));
  if (p.magic != kRecordMagic) {
    return Status::Corruption("bad log record magic");
  }
  const size_t total =
      sizeof(RecordPrefix) + static_cast<size_t>(p.before_len) + p.after_len;
  if (p.total_len != total || len < total) {
    return Status::Corruption("truncated log record body");
  }
  LogRecord r;
  r.type = static_cast<LogRecordType>(p.type);
  r.txn_id = p.txn_id;
  r.prev_lsn = p.prev_lsn;
  r.table_id = p.table_id;
  r.offset = p.offset;
  r.key = p.key;
  const std::byte* cur = src + sizeof(p);
  r.before.assign(cur, cur + p.before_len);
  cur += p.before_len;
  r.after.assign(cur, cur + p.after_len);
  *consumed = total;
  return r;
}

std::string LogRecord::ToString() const {
  const char* names[] = {"INVALID", "BEGIN",  "COMMIT",     "ABORT",
                         "INSERT",  "UPDATE", "CHECKPOINT", "DELETE"};
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s txn=%llu key=%llu table=%u offset=%u before=%zuB "
                "after=%zuB",
                names[static_cast<int>(type)],
                static_cast<unsigned long long>(txn_id),
                static_cast<unsigned long long>(key), table_id, offset,
                before.size(), after.size());
  return buf;
}

}  // namespace spitfire
