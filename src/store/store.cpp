#include "store/store.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>

#include "store/delta.h"
#include "util/checksum.h"

namespace acfc::store {

namespace {

/// Content checksum of a record: the store never materializes image bytes,
/// so the "content" is a canonical descriptor of what a real store would
/// have written. Deterministic across platforms (fixed-width fields).
std::uint64_t record_checksum(int proc, long ordinal, long bytes,
                              bool full_image) {
  unsigned char buf[25];
  std::uint64_t p = static_cast<std::uint64_t>(proc);
  std::uint64_t o = static_cast<std::uint64_t>(ordinal);
  std::uint64_t b = static_cast<std::uint64_t>(bytes);
  std::memcpy(buf, &p, 8);
  std::memcpy(buf + 8, &o, 8);
  std::memcpy(buf + 16, &b, 8);
  buf[24] = full_image ? 1 : 0;
  return util::checksum64(buf, sizeof(buf), /*seed=*/0x5704e5eedULL);
}

}  // namespace

const char* storage_fault_name(StorageFault::Kind kind) {
  switch (kind) {
    case StorageFault::Kind::kTornWrite:
      return "torn-write";
    case StorageFault::Kind::kBitFlip:
      return "bit-flip";
    case StorageFault::Kind::kLostManifestEntry:
      return "lost-manifest-entry";
    case StorageFault::Kind::kStaleManifest:
      return "stale-manifest";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// StableStore
// ---------------------------------------------------------------------------

StableStore::StableStore(StorageModel model, CheckpointMode mode, int nprocs,
                         StorageFaultPlan faults)
    : model_(model), mode_(mode), faults_(std::move(faults)),
      per_proc_(static_cast<size_t>(nprocs)),
      last_payload_(static_cast<size_t>(nprocs)),
      since_full_(static_cast<size_t>(nprocs), 0),
      write_counts_(static_cast<size_t>(nprocs), 0),
      manifest_version_(static_cast<size_t>(nprocs), 0),
      published_upto_(static_cast<size_t>(nprocs), 0) {
  ACFC_CHECK_MSG(nprocs > 0, "store needs at least one process");
  ACFC_CHECK_MSG(model_.write_bandwidth > 0 && model_.read_bandwidth > 0,
                 "storage bandwidths must be positive");
  ACFC_CHECK_MSG(model_.full_every >= 1, "full_every must be >= 1");
  for (const StorageFault& fault : faults_.faults)
    ACFC_CHECK_MSG(fault.proc >= 0 && fault.proc < nprocs &&
                       fault.ckpt_ordinal >= 1,
                   "storage fault targets an invalid (proc, ordinal)");
}

long StableStore::next_ordinal(int proc) {
  ACFC_CHECK_MSG(proc >= 0 && proc < nprocs(),
                 "write names a process outside the store");
  return ++write_counts_[static_cast<size_t>(proc)];
}

template <typename Damage>
bool StableStore::apply_faults(Record& record, Damage&& damage) const {
  bool publish_succeeds = true;
  for (const StorageFault& fault : faults_.faults) {
    if (fault.proc != record.proc || fault.ckpt_ordinal != record.ordinal)
      continue;
    switch (fault.kind) {
      case StorageFault::Kind::kTornWrite:
        record.torn = true;
        damage(fault.kind);
        break;
      case StorageFault::Kind::kBitFlip:
        damage(fault.kind);
        break;
      case StorageFault::Kind::kLostManifestEntry:
        record.in_manifest = false;
        break;
      case StorageFault::Kind::kStaleManifest:
        publish_succeeds = false;
        break;
    }
  }
  return publish_succeeds;
}

void StableStore::commit(Record record, bool publish_succeeds) {
  const auto p = static_cast<size_t>(record.proc);
  if (obs_.bytes_written != nullptr) {
    obs_.bytes_written->inc(record.bytes);
    (record.full_image ? obs_.records_full : obs_.records_delta)->inc();
  }
  per_proc_[p].push_back(std::move(record));
  // Write-then-publish: the new manifest version is staged beside the old
  // one, then atomically swapped in. A failed publish (kStaleManifest)
  // leaves the previous version live — everything above published_upto_
  // is invisible to restore until the next successful publish.
  if (!publish_succeeds) return;
  ++manifest_version_[p];
  published_upto_[p] = write_counts_[p];
}

WriteCost StableStore::write_checkpoint(int proc, long state_bytes,
                                        double time) {
  ACFC_CHECK_MSG(state_bytes >= 0, "negative state size");
  const long ordinal = next_ordinal(proc);
  const auto& records = per_proc_[static_cast<size_t>(proc)];
  int& since_full = since_full_[static_cast<size_t>(proc)];

  WriteCost cost;
  const bool full = mode_ == CheckpointMode::kFull || records.empty() ||
                    since_full + 1 >= model_.full_every;
  if (full) {
    cost.bytes = state_bytes;
    cost.full_image = true;
    since_full = 0;
  } else {
    cost.bytes = static_cast<long>(
                     std::ceil(static_cast<double>(state_bytes) *
                               model_.dirty_fraction)) +
                 model_.delta_metadata_bytes;
    cost.full_image = false;
    ++since_full;
  }
  cost.seconds = model_.write_latency +
                 static_cast<double>(cost.bytes) / model_.write_bandwidth;

  Record record;
  record.proc = proc;
  record.ordinal = ordinal;
  record.time = time;
  record.bytes = cost.bytes;
  record.full_image = cost.full_image;
  record.checksum =
      record_checksum(proc, ordinal, cost.bytes, cost.full_image);
  record.stored_checksum = record.checksum;

  // No bytes are stored here, so write-time damage lands on the checksum.
  // A torn write landed only a prefix, whose checksum never matches.
  const bool publish_succeeds =
      apply_faults(record, [&](StorageFault::Kind kind) {
        if (kind == StorageFault::Kind::kTornWrite) {
          record.stored_checksum = record_checksum(
              proc, ordinal, cost.bytes / 2, cost.full_image);
        } else {
          record.stored_checksum ^= 1ULL << (ordinal % 64);
        }
      });
  commit(std::move(record), publish_succeeds);
  return cost;
}

WriteCost StableStore::write_payload(int proc, std::string_view payload,
                                     double time) {
  const long ordinal = next_ordinal(proc);
  const auto& records = per_proc_[static_cast<size_t>(proc)];
  std::string& last = last_payload_[static_cast<size_t>(proc)];
  int& since_full = since_full_[static_cast<size_t>(proc)];

  // Full vs delta follows the same cadence as write_checkpoint, plus two
  // payload-specific fallbacks: no base yet, or a delta that failed to
  // shrink (unrelated payloads — store the full image and restart the
  // chain rather than pay chain length for nothing).
  bool full = mode_ == CheckpointMode::kFull || records.empty() ||
              last.empty() || since_full + 1 >= model_.full_every;
  std::string encoded;
  if (!full) {
    encoded = encode_delta_record(last, payload);
    if (encoded.size() >= payload.size() + /*record framing=*/33) {
      full = true;
      encoded.clear();
    }
  }
  if (full) {
    encoded = encode_full_record(payload);
    since_full = 0;
  } else {
    ++since_full;
  }

  WriteCost cost;
  cost.bytes = static_cast<long>(encoded.size());
  cost.full_image = full;
  cost.seconds = model_.write_latency +
                 static_cast<double>(cost.bytes) / model_.write_bandwidth;

  Record record;
  record.proc = proc;
  record.ordinal = ordinal;
  record.time = time;
  record.bytes = cost.bytes;
  record.full_image = full;
  record.checksum = util::checksum64(encoded);

  // Write-time damage lands on the stored bytes themselves: integrity
  // checks and decode then reject the record for the same physical reason.
  const bool publish_succeeds =
      apply_faults(record, [&](StorageFault::Kind kind) {
        if (kind == StorageFault::Kind::kTornWrite) {
          encoded.resize(encoded.size() / 2);
        } else {
          encoded[static_cast<size_t>(ordinal) % encoded.size()] ^=
              static_cast<char>(1 << (ordinal % 8));
        }
      });
  record.stored_checksum = util::checksum64(encoded);
  record.encoded = std::move(encoded);
  // The writer deltas against what it intended to write, not against what
  // landed on disk: its in-memory state is authoritative.
  last.assign(payload);
  commit(std::move(record), publish_succeeds);
  return cost;
}

std::optional<std::string> StableStore::restore_payload(int proc,
                                                        long ordinal) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  const auto it = std::lower_bound(
      records.begin(), records.end(), ordinal,
      [](const Record& r, long o) { return r.ordinal < o; });
  if (it == records.end() || it->ordinal != ordinal) return std::nullopt;

  // Collect the chain: target back to its base full image.
  std::vector<const Record*> chain;
  for (auto walk = it;; --walk) {
    if (!verify_record(proc, walk->ordinal)) return std::nullopt;
    chain.push_back(&*walk);
    if (walk->full_image) break;
    if (walk == records.begin()) return std::nullopt;  // base collected
  }

  // Replay oldest-first; every link must decode against the one before.
  std::string payload;
  for (auto link = chain.rbegin(); link != chain.rend(); ++link) {
    auto decoded = decode_record((*link)->encoded, payload);
    if (!decoded) return std::nullopt;
    payload = std::move(*decoded);
  }
  return payload;
}

std::optional<std::string> StableStore::restore_latest_payload(
    int proc) const {
  sync_point();
  const RestoreScan scan = scan_restore(proc);
  if (scan.ordinal == 0) return std::nullopt;
  return restore_payload(proc, scan.ordinal);
}

void StableStore::set_read_barrier(std::function<void()> barrier) {
  read_barrier_ = std::move(barrier);
}

void StableStore::set_obs(obs::Registry* registry) {
  if (registry == nullptr) {
    obs_ = ObsHandles{};
    return;
  }
  obs_.bytes_written = &registry->counter("store.bytes_written",
                                          {"bytes", "store"});
  obs_.records_full = &registry->counter("store.records_full",
                                         {"records", "store"});
  obs_.records_delta = &registry->counter("store.records_delta",
                                          {"records", "store"});
  obs_.gc_reclaimed_bytes = &registry->counter("store.gc_reclaimed_bytes",
                                               {"bytes", "store"});
  obs_.read_barrier_drains = &registry->counter("store.read_barrier_drains",
                                                {"drains", "store"});
}

std::uint64_t StableStore::digest() const {
  sync_point();
  std::uint64_t h = 0x5eedULL;
  for (size_t p = 0; p < per_proc_.size(); ++p) {
    for (const Record& r : per_proc_[p]) {
      unsigned char buf[8 * 5 + 3];
      std::uint64_t o = static_cast<std::uint64_t>(r.ordinal);
      std::uint64_t b = static_cast<std::uint64_t>(r.bytes);
      std::uint64_t t;
      std::memcpy(&t, &r.time, 8);
      std::memcpy(buf, &o, 8);
      std::memcpy(buf + 8, &b, 8);
      std::memcpy(buf + 16, &t, 8);
      std::memcpy(buf + 24, &r.checksum, 8);
      std::memcpy(buf + 32, &r.stored_checksum, 8);
      buf[40] = r.full_image ? 1 : 0;
      buf[41] = r.torn ? 1 : 0;
      buf[42] = r.in_manifest ? 1 : 0;
      h = util::checksum64(buf, sizeof(buf), h);
      h = util::checksum64(r.encoded.data(), r.encoded.size(), h);
    }
    const std::uint64_t upto =
        static_cast<std::uint64_t>(published_upto_[p]);
    h = util::checksum64(&upto, 8, h);
  }
  return h;
}

const StableStore::Record* StableStore::find_record(int proc,
                                                    long ordinal) const {
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  const auto it = std::lower_bound(
      records.begin(), records.end(), ordinal,
      [](const Record& r, long o) { return r.ordinal < o; });
  if (it == records.end() || it->ordinal != ordinal) return nullptr;
  return &*it;
}

bool StableStore::verify_record(int proc, long ordinal) const {
  sync_point();
  const Record* record = find_record(proc, ordinal);
  if (record == nullptr) return false;  // collected or never written
  if (record->torn) return false;
  if (record->stored_checksum != record->checksum) return false;
  if (!record->in_manifest) return false;
  // Published visibility: a record above the live manifest's coverage does
  // not exist as far as restore is concerned.
  return ordinal <= published_upto_.at(static_cast<size_t>(proc));
}

bool StableStore::chain_verifies(int proc, long ordinal) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  const auto it = std::lower_bound(
      records.begin(), records.end(), ordinal,
      [](const Record& r, long o) { return r.ordinal < o; });
  if (it == records.end() || it->ordinal != ordinal) return false;
  // Walk back to the base full image; every link must verify. The reverse
  // walk is bounded by the records vector — a chain whose base was
  // collected (or that never had one) is unrestorable, not a crash.
  for (auto walk = it;; --walk) {
    if (!verify_record(proc, walk->ordinal)) return false;
    if (walk->full_image) return true;
    if (walk == records.begin()) return false;  // base image collected
  }
}

long StableStore::latest_valid_index(int proc) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  for (auto it = records.rbegin(); it != records.rend(); ++it)
    if (chain_verifies(proc, it->ordinal)) return it->ordinal;
  return 0;
}

StableStore::RestoreScan StableStore::scan_restore(int proc) const {
  sync_point();
  RestoreScan scan;
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    if (!chain_verifies(proc, it->ordinal)) {
      ++scan.corrupt_skipped;
      continue;
    }
    scan.ordinal = it->ordinal;
    scan.seconds = restore_seconds(proc, it->ordinal);
    // Chain length of the chosen point.
    for (auto walk = it; walk != records.rend(); ++walk) {
      ++scan.chain_length;
      if (walk->full_image) break;
    }
    break;
  }
  return scan;
}

Manifest StableStore::manifest_of(int proc) const {
  sync_point();
  Manifest manifest;
  manifest.proc = proc;
  manifest.version = manifest_version_.at(static_cast<size_t>(proc));
  const long upto = published_upto_.at(static_cast<size_t>(proc));
  for (const Record& r : per_proc_.at(static_cast<size_t>(proc))) {
    if (!r.in_manifest || r.ordinal > upto) continue;
    manifest.entries.push_back(
        ManifestEntry{r.ordinal, r.bytes, r.full_image, r.checksum});
  }
  return manifest;
}

int StableStore::chain_length(int proc) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  if (records.empty()) return 0;
  int length = 0;
  for (auto it = records.rbegin(); it != records.rend(); ++it) {
    ++length;
    if (it->full_image) break;
  }
  return length;
}

double StableStore::restore_seconds(int proc) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  if (records.empty()) return 0.0;
  return restore_seconds(proc, records.back().ordinal);
}

double StableStore::restore_seconds(int proc, long ordinal) const {
  sync_point();
  const auto& records = per_proc_.at(static_cast<size_t>(proc));
  const auto it = std::lower_bound(
      records.begin(), records.end(), ordinal,
      [](const Record& r, long o) { return r.ordinal < o; });
  ACFC_CHECK_MSG(it != records.end() && it->ordinal == ordinal,
                 "restore of a collected or never-written record");
  double seconds = 0.0;
  for (auto walk = it;; --walk) {
    seconds += model_.read_latency +
               static_cast<double>(walk->bytes) / model_.read_bandwidth;
    if (walk->full_image) return seconds;
    // The chain-walk must never run off the front of the live records — a
    // delta whose base image was collected is a storage-layer bug, not a
    // silently-wrong restore time.
    ACFC_CHECK_MSG(walk != records.begin(),
                   "restore chain dereferences a collected base image");
  }
}

long StableStore::collect_garbage(int keep_last) {
  sync_point();
  ACFC_CHECK_MSG(keep_last >= 1, "must keep at least one restore point");
  long reclaimed = 0;
  for (size_t p = 0; p < per_proc_.size(); ++p) {
    auto& records = per_proc_[p];
    if (static_cast<int>(records.size()) <= keep_last) continue;
    const int proc = static_cast<int>(p);
    // The oldest restore point we must keep. Only VERIFIABLE records count
    // against the quota: a degraded restore falls back past corrupt
    // records, so the deepest record it could choose must stay chained.
    // When fewer than keep_last records verify, fall back to the
    // positional rule (keep the newest keep_last) extended to the oldest
    // valid one, so a store full of rot still reclaims nothing it might
    // regret.
    size_t oldest_kept = records.size() - static_cast<size_t>(keep_last);
    int valid_seen = 0;
    for (size_t i = records.size(); i-- > 0;) {
      if (!chain_verifies(proc, records[i].ordinal)) continue;
      ++valid_seen;
      if (i < oldest_kept) oldest_kept = i;
      if (valid_seen >= keep_last) break;
    }
    // Walk back from it to the full image its chain starts at.
    size_t chain_base = oldest_kept;
    while (chain_base > 0 && !records[chain_base].full_image) --chain_base;
    for (size_t i = 0; i < chain_base; ++i) reclaimed += records[i].bytes;
    records.erase(records.begin(),
                  records.begin() + static_cast<std::ptrdiff_t>(chain_base));
  }
  if (obs_.gc_reclaimed_bytes != nullptr)
    obs_.gc_reclaimed_bytes->inc(reclaimed);
  return reclaimed;
}

long StableStore::bytes_stored() const {
  sync_point();
  long total = 0;
  for (size_t p = 0; p < per_proc_.size(); ++p)
    total += bytes_stored(static_cast<int>(p));
  return total;
}

long StableStore::bytes_stored(int proc) const {
  sync_point();
  long total = 0;
  for (const auto& r : per_proc_.at(static_cast<size_t>(proc)))
    total += r.bytes;
  return total;
}

int StableStore::record_count(int proc) const {
  sync_point();
  return static_cast<int>(per_proc_.at(static_cast<size_t>(proc)).size());
}

long StableStore::write_count(int proc) const {
  sync_point();
  return write_counts_.at(static_cast<size_t>(proc));
}

std::vector<StableStore::Record> StableStore::records_of(int proc) const {
  sync_point();
  return per_proc_.at(static_cast<size_t>(proc));
}

DerivedParams derive_checkpoint_params(const StorageModel& model,
                                       CheckpointMode mode,
                                       long state_bytes) {
  DerivedParams out;
  double bytes = static_cast<double>(state_bytes);
  if (mode == CheckpointMode::kIncremental) {
    // Steady-state average: (full_every − 1) deltas then one full image.
    const double delta =
        bytes * model.dirty_fraction +
        static_cast<double>(model.delta_metadata_bytes);
    bytes = (delta * (model.full_every - 1) + bytes) /
            static_cast<double>(model.full_every);
  }
  out.latency = model.write_latency + bytes / model.write_bandwidth;
  // Synchronous writes block the process for the full latency.
  out.overhead = out.latency;
  return out;
}

std::function<std::pair<double, double>(int)> checkpoint_cost_fn(
    StableStore& store, std::function<long(int)> state_bytes) {
  // The shared counter is a plain sequence number: one Engine run calls
  // this from a single thread (its event loop).
  auto counter = std::make_shared<long>(0);
  return [&store, state_bytes = std::move(state_bytes),
          counter](int proc) -> std::pair<double, double> {
    const WriteCost cost = store.write_checkpoint(
        proc, state_bytes(proc), static_cast<double>((*counter)++));
    return {cost.seconds, cost.seconds};  // synchronous write: o = l
  };
}

std::function<bool(int, long)> checkpoint_verify_fn(
    const StableStore& store) {
  return [&store](int proc, long ordinal) {
    return store.chain_verifies(proc, ordinal);
  };
}

}  // namespace acfc::store
