// Stable-storage substrate: where checkpoints actually live.
//
// The paper treats the checkpoint overhead o and latency l as measured
// constants (o = 1.78 s, l = 4.292 s from Starfish). This module derives
// them from a storage model instead — write bandwidth, per-operation
// commit latency, process state size, and full vs incremental checkpoint
// modes — and manages the stored images: restore chains (an incremental
// restore replays the last full image plus every delta after it) and
// garbage collection that never breaks a chain.
//
// Storage integrity (the degraded-recovery subsystem): every record
// carries an XXH64 content checksum stamped at write time, and each
// process owns a small versioned manifest republished with a
// write-then-publish protocol after every checkpoint. A StorageFaultPlan
// (store/fault.h) injects torn writes, bit flips, lost manifest entries,
// and stale manifests; verify_record / latest_valid_index let restore skip
// rotten images and report what it skipped, so recovery can fall back to
// the deepest fully-verifiable restore point instead of failing outright.
//
// The derived (o, l) pairs feed both the simulator (via
// SimOptions::checkpoint_cost_fn) and the Section-4 analytic model,
// closing the loop between the storage layer and the overhead-ratio
// figures.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "store/fault.h"
#include "util/error.h"

namespace acfc::store {

struct StorageModel {
  double write_bandwidth = 100e6;  ///< bytes/s to stable storage
  double read_bandwidth = 200e6;   ///< bytes/s from stable storage
  double write_latency = 5e-3;     ///< per-operation commit latency (s)
  double read_latency = 5e-3;
  /// Fraction of state dirtied between consecutive checkpoints
  /// (incremental mode writes only this fraction plus metadata).
  double dirty_fraction = 0.3;
  /// Metadata bytes per incremental delta (page tables, manifests).
  long delta_metadata_bytes = 4096;
  /// Incremental mode writes a fresh full image every k-th checkpoint
  /// (bounds the restore chain length). 1 degenerates to full mode.
  int full_every = 8;
};

enum class CheckpointMode { kFull, kIncremental };

struct WriteCost {
  double seconds = 0.0;
  long bytes = 0;
  bool full_image = false;
};

// ---------------------------------------------------------------------------
// Manifests (the on-disk catalog, one per process)
// ---------------------------------------------------------------------------

struct ManifestEntry {
  long ordinal = 0;  ///< per-process write ordinal of the record (1-based)
  long bytes = 0;
  bool full_image = true;
  std::uint64_t checksum = 0;  ///< content checksum of the record
};

/// A published manifest version: the set of records restore may trust.
struct Manifest {
  int proc = -1;
  long version = 0;  ///< publish counter (bumps on every successful publish)
  std::vector<ManifestEntry> entries;
};

/// Binary manifest encoding ("ACFM" magic, format version, entries,
/// trailing XXH64 of everything before it). docs/analysis.md documents the
/// exact layout.
std::string encode_manifest(const Manifest& manifest);

/// Strict parse: rejects (nullopt) bad magic, unknown format versions,
/// truncation, trailing garbage, and checksum mismatches. Never throws on
/// arbitrary bytes — tests/test_fuzz.cpp feeds it mutated encodings.
std::optional<Manifest> parse_manifest(std::string_view bytes);

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// One process's checkpoint storage timeline.
class StableStore {
 public:
  StableStore(StorageModel model, CheckpointMode mode, int nprocs,
              StorageFaultPlan faults = {});

  /// Processes the store serves; writes name a proc in [0, nprocs()).
  int nprocs() const { return static_cast<int>(per_proc_.size()); }

  /// Records a checkpoint of `state_bytes` of process state at `time`;
  /// applies any StorageFaultPlan entry landing on this write, then
  /// republishes the process's manifest (write-then-publish; a
  /// kStaleManifest fault makes the publish fail, leaving the previous
  /// version live). Returns the write cost.
  WriteCost write_checkpoint(int proc, long state_bytes, double time);

  /// Payload-backed variant: stores actual bytes through the ACFD codec
  /// (store/delta.h). Incremental mode delta-encodes `payload` against the
  /// process's previous payload and falls back to a full record every
  /// full_every-th take — or whenever the delta would not be smaller — so
  /// chain lengths stay bounded and delta encoding never inflates the
  /// store. Faults landing on this ordinal corrupt the stored bytes
  /// themselves (a torn write keeps only a prefix, a bit flip damages one
  /// byte), so both checksum verification and decode reject the record.
  /// All manifest/GC bookkeeping matches write_checkpoint.
  WriteCost write_payload(int proc, std::string_view payload, double time);

  /// Decodes the payload of record `ordinal` by replaying its delta chain
  /// from the base full image. nullopt when any link is missing, fails
  /// verification, or fails to decode — the payload analogue of
  /// chain_verifies.
  std::optional<std::string> restore_payload(int proc, long ordinal) const;

  /// Payload of the newest restorable record (scan_restore's choice).
  /// nullopt when no chain verifies.
  std::optional<std::string> restore_latest_payload(int proc) const;

  /// Seconds to restore the process's newest checkpoint (base image plus
  /// deltas for incremental chains). 0 when nothing is stored. Does NOT
  /// verify integrity — pair with latest_valid_index / scan_restore for
  /// degraded restores.
  double restore_seconds(int proc) const;
  /// Seconds to restore the specific record `ordinal` (its full chain).
  double restore_seconds(int proc, long ordinal) const;

  /// Number of stored records whose replay the newest restore point of
  /// `proc` needs (1 for full mode).
  int chain_length(int proc) const;

  /// Integrity of one record in isolation: present (not collected), write
  /// completed (not torn), content checksum matches the stored one, and a
  /// currently-published manifest names it.
  bool verify_record(int proc, long ordinal) const;

  /// Integrity of the record's whole restore chain: verify_record holds
  /// for it and for every record back to (and including) its base full
  /// image — a delta whose base rotted is itself unrestorable.
  bool chain_verifies(int proc, long ordinal) const;

  /// Newest ordinal whose chain fully verifies; 0 when none does.
  long latest_valid_index(int proc) const;

  /// What a degraded restore of `proc` would do right now.
  struct RestoreScan {
    long ordinal = 0;         ///< chosen restore point (0 = none valid)
    int corrupt_skipped = 0;  ///< newer records skipped as unverifiable
    int chain_length = 0;     ///< records replayed for the chosen point
    double seconds = 0.0;     ///< restore cost of the chosen chain
  };
  RestoreScan scan_restore(int proc) const;

  /// The currently published manifest of `proc` (what restore would read).
  Manifest manifest_of(int proc) const;

  /// Attaches an observability registry (docs/observability.md): bytes
  /// written, full/delta record counts, GC reclaim, and read-barrier
  /// drains flow into `store.*` metrics from then on. Handles are cached
  /// at attach so the write path never takes the registry's registration
  /// lock. nullptr detaches; the store never owns the registry.
  void set_obs(obs::Registry* registry);

  /// Installs a barrier invoked at the top of every read-side operation
  /// (restore/scan/verify/GC/digest/record accessors). An AsyncPersister
  /// points this at its drain(), so readers transparently wait for every
  /// submitted write to commit before observing the store; pass nullptr to
  /// uninstall. The barrier must not itself call back into the store's
  /// read API.
  void set_read_barrier(std::function<void()> barrier);

  /// Order-and-content digest of everything a restore could observe: every
  /// live record's identity, flags, checksums, and encoded bytes, plus the
  /// published visibility horizon, folded per process in ordinal order.
  /// Two stores with equal digests hold byte-identical record chains —
  /// the equality the async-vs-sync differential tests assert. Manifest
  /// version counters are deliberately excluded (they count publishes, not
  /// content).
  std::uint64_t digest() const;

  /// Drops records not needed to restore any of the `keep_last` newest
  /// VERIFIABLE restore points of each process; never breaks an
  /// incremental chain, and in particular never unchains the record a
  /// degraded restore would fall back to (corrupt records do not count
  /// against the quota — they are not restore points).
  /// Returns bytes reclaimed.
  long collect_garbage(int keep_last);

  long bytes_stored() const;
  long bytes_stored(int proc) const;
  int record_count(int proc) const;
  /// Total writes `proc` ever performed (GC does not rewind this).
  long write_count(int proc) const;

  struct Record {
    int proc = -1;
    long ordinal = 0;  ///< 1-based per-process write ordinal; survives GC
    double time = 0.0;
    long bytes = 0;
    bool full_image = true;
    std::uint64_t checksum = 0;         ///< true content checksum at write
    std::uint64_t stored_checksum = 0;  ///< what landed on disk
    bool torn = false;                  ///< write interrupted mid-record
    bool in_manifest = true;            ///< manifest entry survived
    /// Encoded ACFD record bytes as they sit on disk (faults included).
    /// Empty for byte-count-only records from write_checkpoint.
    std::string encoded;
  };
  /// All live records of one process, oldest first.
  std::vector<Record> records_of(int proc) const;

 private:
  const Record* find_record(int proc, long ordinal) const;
  /// Checks `proc` and returns the ordinal of its next write.
  long next_ordinal(int proc);
  /// Applies the plan's faults on write (record.proc, record.ordinal) in
  /// plan order: manifest faults mark `record`, byte damage (torn write,
  /// bit flip) goes to `damage(kind)`. False when a stale-manifest fault
  /// fails this write's publish.
  template <typename Damage>
  bool apply_faults(Record& record, Damage&& damage) const;
  /// The commit tail of both write entry points: stores the record, counts
  /// it, and republishes the manifest unless the publish failed.
  void commit(Record record, bool publish_succeeds);
  /// Read-side entry gate: lets an attached AsyncPersister drain before
  /// this thread observes the store.
  void sync_point() const {
    if (read_barrier_) {
      read_barrier_();
      if (obs_.read_barrier_drains != nullptr)
        obs_.read_barrier_drains->inc();
    }
  }

  StorageModel model_;
  CheckpointMode mode_;
  StorageFaultPlan faults_;
  std::vector<std::vector<Record>> per_proc_;
  /// Last payload each process wrote (the delta base for its next write).
  /// The writer's own in-memory copy: disk faults never corrupt it.
  std::vector<std::string> last_payload_;
  std::vector<int> since_full_;
  std::vector<long> write_counts_;
  /// Per-process publish state: version counter and the highest ordinal
  /// the live manifest covers (records above it are invisible to restore).
  std::vector<long> manifest_version_;
  std::vector<long> published_upto_;
  std::function<void()> read_barrier_;
  /// Cached metric handles (all null when no registry is attached).
  struct ObsHandles {
    obs::Counter* bytes_written = nullptr;
    obs::Counter* records_full = nullptr;
    obs::Counter* records_delta = nullptr;
    obs::Counter* gc_reclaimed_bytes = nullptr;
    obs::Counter* read_barrier_drains = nullptr;
  };
  ObsHandles obs_;
};

/// The (o, l) this storage model implies for a given state size: o is the
/// process-blocking portion. Writes are modelled as synchronous, so
/// o = l = transfer + commit latency.
struct DerivedParams {
  double overhead = 0.0;  ///< o
  double latency = 0.0;   ///< l
};

DerivedParams derive_checkpoint_params(const StorageModel& model,
                                       CheckpointMode mode,
                                       long state_bytes);

/// Adapters wiring a StableStore into the simulator. The store must
/// outlive the returned functions and be private to one Engine run (the
/// engine calls them from its event loop; sharing a store across a
/// parallel run_batch would race).
///
/// For SimOptions::checkpoint_cost_fn: records a checkpoint of
/// `state_bytes(proc)` bytes on every call and returns the synchronous
/// (o, l) its write cost implies. Call times are recorded as a per-store
/// sequence number — the engine knows simulated time, the store only needs
/// a monotone order for chain bookkeeping.
std::function<std::pair<double, double>(int)> checkpoint_cost_fn(
    StableStore& store, std::function<long(int)> state_bytes);

/// For SimOptions::recovery_cost_fn: the chain-length-aware time to
/// restore the process's newest stored image (full image plus deltas for
/// incremental chains).
std::function<double(int)> restore_cost_fn(const StableStore& store);

/// Degraded variant: the restore cost of the deepest fully-verifiable
/// chain (what a corruption-aware restore actually pays).
std::function<double(int)> degraded_restore_cost_fn(const StableStore& store);

/// For SimOptions::checkpoint_verify_fn: asks the store whether the record
/// written at `(proc, ordinal)` currently has a fully-verifiable restore
/// chain. The engine consults it at rollback time, so transient faults
/// (stale manifests) heal exactly when the store says they do.
std::function<bool(int, long)> checkpoint_verify_fn(const StableStore& store);

}  // namespace acfc::store
