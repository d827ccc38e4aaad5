// ACFD — the on-disk checkpoint-payload record format (delta codec).
//
// The paper's incremental-checkpointing discussion (and the retention
// analysis in "Online Checkpointing with Improved Worst-Case Guarantees",
// PAPERS.md) assumes successive process images share most of their bytes.
// This codec materializes that assumption: a record is either a *full*
// image (the payload verbatim) or a *delta* against the previous payload —
// a block-granular diff that copies unchanged runs from the base and
// stores only changed bytes as literals.
//
// Wire format (fixed-width little-endian fields, documented in
// docs/analysis.md; the trailing checksum is XXH64 like every other
// stored artifact):
//
//   magic        "ACFD"                       4 bytes
//   format       u32  (currently 1)
//   kind         u8   (0 = full, 1 = delta)
//   payload_len  u64  decoded payload size
//   base_check   u64  XXH64 of the base payload (deltas; 0 for full)
//   body         full:  payload bytes
//                delta: op stream — op u8 (0 = copy, 1 = literal);
//                       copy:    offset u32, length u32 (from the base)
//                       literal: length u32, then that many bytes
//   checksum     u64  XXH64 of everything before it
//
// decode_record is strict: bad magic, unknown format, truncation,
// trailing garbage, out-of-bounds copy ops, payload-length mismatch, a
// wrong base, or a checksum mismatch all return nullopt — never throw,
// never read out of bounds. Restores verify every link of a delta chain
// this way, so corruption invalidates exactly the chain suffix that
// depends on the rotten record.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace acfc::store {

enum class RecordKind : std::uint8_t { kFull = 0, kDelta = 1 };

/// Block granularity of the diff: the encoder compares base and payload in
/// runs of this many bytes, so a single changed byte costs one block of
/// literal plus op overhead. 8 matches the payload encodings' fixed-width
/// field size (ACFS counters and the tick are u64), so a changed
/// counter dirties exactly one block.
inline constexpr std::size_t kDeltaBlockBytes = 8;

/// Encodes `payload` as a self-contained full record.
std::string encode_full_record(std::string_view payload);

/// Encodes `payload` as a delta against `base` (the previous payload).
/// Falls back to literal runs wherever the two disagree, so any (base,
/// payload) pair encodes correctly; when the two share little, the record
/// can exceed a full record's size — callers compare and keep the smaller
/// (StableStore::write_payload does).
std::string encode_delta_record(std::string_view base,
                                std::string_view payload);

/// The kind of an encoded record, without validating the body. nullopt on
/// anything too short or with a bad magic/format/kind byte.
std::optional<RecordKind> record_kind(std::string_view record);

/// Strict decode. `base` is the decoded previous payload for delta
/// records, and ignored for full records. Returns the decoded payload or
/// nullopt on any corruption (see the format comment for the full list).
std::optional<std::string> decode_record(std::string_view record,
                                         std::string_view base);

}  // namespace acfc::store
