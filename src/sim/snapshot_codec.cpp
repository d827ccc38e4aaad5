#include "sim/snapshot_codec.h"

#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

namespace acfc::sim {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'F', 'S'};
constexpr std::uint32_t kFormat = 1;

void put_u32(std::string& out, std::uint32_t v) {
  char b[4];
  std::memcpy(b, &v, 4);
  out.append(b, 4);
}

void put_u64(std::string& out, std::uint64_t v) {
  char b[8];
  std::memcpy(b, &v, 8);
  out.append(b, 8);
}

void put_i64(std::string& out, std::int64_t v) {
  put_u64(out, static_cast<std::uint64_t>(v));
}

void put_counters(std::string& out, const CounterMap& counters) {
  put_u32(out, static_cast<std::uint32_t>(counters.entries.size()));
  for (const auto& [key, value] : counters.entries) {
    put_u32(out, static_cast<std::uint32_t>(key));
    put_i64(out, value);
  }
}

}  // namespace

std::string serialize_snapshot(const VmSnapshot& snapshot) {
  std::string out;
  serialize_snapshot_into(snapshot, out);
  return out;
}

void serialize_snapshot_into(const VmSnapshot& snapshot, std::string& out) {
  out.clear();
  // Dominant fields are the three per-process arrays (clock + channel
  // counters); size for them up front. A reused scratch buffer already has
  // the capacity, making this a no-op.
  out.reserve(64 + static_cast<std::size_t>(snapshot.vc.size()) * 8 +
              snapshot.sends_per_channel.size() * 16 +
              snapshot.stack.size() * 28);
  out.append(kMagic, 4);
  put_u32(out, kFormat);
  put_u64(out, snapshot.digest);
  std::uint64_t rng_state[4];
  snapshot.rng.save_state(rng_state);
  for (const std::uint64_t word : rng_state) put_u64(out, word);
  put_u32(out, static_cast<std::uint32_t>(snapshot.vc.size()));
  for (int i = 0; i < snapshot.vc.size(); ++i) put_u64(out, snapshot.vc[i]);
  put_i64(out, snapshot.collectives_done);
  put_u32(out, static_cast<std::uint32_t>(snapshot.sends_per_channel.size()));
  for (const long sends : snapshot.sends_per_channel) put_i64(out, sends);
  put_u32(out, static_cast<std::uint32_t>(snapshot.recvs_per_channel.size()));
  for (const long recvs : snapshot.recvs_per_channel) put_i64(out, recvs);
  put_counters(out, snapshot.irregular_counts);
  put_counters(out, snapshot.ckpt_instances);
  // Control stack: frames by loop-statement uid (or -1 for plain blocks)
  // plus position — address-free, so the encoding is replay-stable.
  put_u32(out, static_cast<std::uint32_t>(snapshot.stack.size()));
  for (const Frame& frame : snapshot.stack) {
    put_u32(out, static_cast<std::uint32_t>(
                     frame.loop != nullptr ? frame.loop->uid() : -1));
    put_u64(out, static_cast<std::uint64_t>(frame.index));
    put_i64(out, frame.loop_value);
    put_i64(out, frame.loop_hi);
  }
}

std::function<void(int, const VmSnapshot&)> store_capture_fn(
    store::StableStore& store) {
  // Sequence counter and serialization scratch shared by the returned
  // closure; one Engine run calls the hook from a single thread (its
  // event loop), so neither needs synchronization. The scratch buffer
  // makes steady-state capture allocation-free.
  struct CaptureState {
    long counter = 0;
    std::string scratch;
  };
  auto state_holder = std::make_shared<CaptureState>();
  return [&store, state_holder](int proc, const VmSnapshot& state) {
    serialize_snapshot_into(state, state_holder->scratch);
    store.write_payload(proc, state_holder->scratch,
                        static_cast<double>(state_holder->counter++));
  };
}

std::function<void(int, const VmSnapshot&)> async_store_capture_fn(
    store::AsyncPersister& persister) {
  // Freelist of snapshots cycling producer → queue → writer → producer.
  // Copy-assigning into a recycled snapshot reuses every member vector's
  // capacity, so a steady-state take allocates nothing; and because the
  // writer RETURNS snapshots instead of freeing them, producer-allocated
  // blocks are never released on the writer thread (which would route every
  // subsequent capture allocation through the allocator's slow cross-
  // thread path). The mutex hand-off doubles as the happens-before edge
  // between the writer's last read of a snapshot and its reuse.
  struct Pool {
    std::mutex mu;
    std::vector<std::unique_ptr<VmSnapshot>> free;
  };
  auto pool = std::make_shared<Pool>();
  return [&persister, pool](int proc, const VmSnapshot& state) {
    std::unique_ptr<VmSnapshot> snap;
    {
      const std::lock_guard<std::mutex> lock(pool->mu);
      if (!pool->free.empty()) {
        snap = std::move(pool->free.back());
        pool->free.pop_back();
      }
    }
    if (snap)
      *snap = state;
    else
      snap = std::make_unique<VmSnapshot>(state);
    persister.submit(
        proc, [snap = std::move(snap), pool](std::string& out) mutable {
          serialize_snapshot_into(*snap, out);
          const std::lock_guard<std::mutex> lock(pool->mu);
          pool->free.push_back(std::move(snap));
        });
  };
}

}  // namespace acfc::sim
