// Deterministic byte encoding of VmSnapshot — the bridge between the
// engine's checkpoint hook and the storage layer's payload records.
//
// serialize_snapshot flattens a process's complete VM state into a
// canonical byte string: identical states encode to identical bytes (the
// property the ACFD delta codec and every stored checksum depend on), and
// nearly-identical states — consecutive checkpoints of one process —
// encode to nearly-identical bytes, which is what makes delta records
// small. Pointers into the immutable program AST are encoded by statement
// uid, never by address, so encodings are stable across runs and
// processes.
//
// Two capture adapters package the serializer as engine hooks; both are
// SimOptions::checkpoint_capture_fn values:
//
//  * store_capture_fn serializes every take inline and writes it into a
//    StableStore via write_payload — the synchronous path. A per-closure
//    scratch buffer is reused across takes, so steady-state serialization
//    allocates nothing.
//  * async_store_capture_fn copies the take into a recycled snapshot and
//    submits it to a store::AsyncPersister; serialization, delta encoding,
//    checksumming, and publication all happen on its writer thread, off
//    the simulation critical path. Snapshots cycle through a freelist — the
//    writer returns them after serializing — so steady-state capture
//    performs zero heap allocations AND never frees producer-allocated
//    memory on the writer thread (cross-thread malloc/free churn defeats
//    the allocator's per-thread caches; recycling is most of this
//    adapter's speedup).
//
// The store (and persister) must outlive the returned function and belong
// to a single Engine run.
#pragma once

#include <functional>
#include <string>

#include "sim/vm.h"
#include "store/async_persist.h"
#include "store/store.h"

namespace acfc::sim {

/// Canonical encoding ("ACFS" magic, format 1; fixed-width fields — see
/// docs/analysis.md). Layout: digest, rng state, vector clock,
/// collectives_done, per-channel send/recv counters, irregular and
/// checkpoint-instance counters, control stack (loop uid / index /
/// loop_value / loop_hi per frame).
std::string serialize_snapshot(const VmSnapshot& snapshot);

/// In-place variant: clears `out` and writes the canonical encoding into
/// it. Callers that persist many snapshots reuse one scratch buffer and
/// pay zero allocations per take once it has warmed up.
void serialize_snapshot_into(const VmSnapshot& snapshot, std::string& out);

/// A SimOptions::checkpoint_capture_fn that serializes every captured
/// snapshot into `store`. Write times are a per-store sequence number (the
/// store only needs a monotone order, as with store::checkpoint_cost_fn).
std::function<void(int, const VmSnapshot&)> store_capture_fn(
    store::StableStore& store);

/// A SimOptions::checkpoint_capture_fn that copies every take into a
/// pooled snapshot and submits it to `persister`: the take path costs one
/// copy-assignment into recycled storage (no allocation, no frees), and
/// the persister's writer thread serializes + stores it in take order.
/// After persister.drain() — or any barrier-triggering store read — the
/// store is byte-identical to what store_capture_fn would have produced.
std::function<void(int, const VmSnapshot&)> async_store_capture_fn(
    store::AsyncPersister& persister);

}  // namespace acfc::sim
