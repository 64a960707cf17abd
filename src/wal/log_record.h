#ifndef SPITFIRE_WAL_LOG_RECORD_H_
#define SPITFIRE_WAL_LOG_RECORD_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/constants.h"
#include "common/status.h"

namespace spitfire {

// Log record types. UPDATE carries before and after images (Section 5.2:
// "(4) before and after images") of the bytes it changed.
enum class LogRecordType : uint8_t {
  kInvalid = 0,
  kBegin = 1,
  kCommit = 2,
  kAbort = 3,
  kInsert = 4,
  kUpdate = 5,
  kCheckpoint = 6,
  kDelete = 7,
};

// A logical write-ahead log record:
//   (1) transaction id, (2) record type, (3) LSN of the previous record of
//   the same transaction, (4) before/after images.
// The key identifies the tuple within its table, so recovery can replay
// operations logically after the index is rebuilt. The images cover the
// tuple bytes [offset, offset + size): an INSERT's after-image and a
// DELETE's before-image are the whole tuple, an UPDATE's images the one
// byte range it changed (possibly empty).
struct LogRecord {
  LogRecordType type = LogRecordType::kInvalid;
  txn_id_t txn_id = kInvalidTxnId;
  lsn_t prev_lsn = kInvalidLsn;
  uint32_t table_id = 0;
  uint32_t offset = 0;
  uint64_t key = 0;
  std::vector<std::byte> before;
  std::vector<std::byte> after;

  // Serialized size in bytes.
  size_t SerializedSize() const;
  // Appends the serialized form to `out`.
  void SerializeTo(std::vector<std::byte>* out) const;
  // Serializes into `dst` (must have SerializedSize() bytes).
  void SerializeTo(std::byte* dst) const;
  // Parses one record from `src` (at most `len` bytes). On success sets
  // *consumed. Returns Corruption on malformed input.
  static Result<LogRecord> Deserialize(const std::byte* src, size_t len,
                                       size_t* consumed);

  std::string ToString() const;
};

}  // namespace spitfire

#endif  // SPITFIRE_WAL_LOG_RECORD_H_
