#include "proto/protocols.h"

#include "proto/chandy_lamport.h"
#include "proto/cic.h"
#include "proto/koo_toueg.h"
#include "proto/sync_and_stop.h"
#include "sim/supervisor.h"
#include "util/error.h"

namespace acfc::proto {

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kAppDriven:
      return "appl-driven";
    case Protocol::kSyncAndStop:
      return "SaS";
    case Protocol::kChandyLamport:
      return "C-L";
    case Protocol::kKooToueg:
      return "K-T";
    case Protocol::kCic:
      return "CIC";
    case Protocol::kUncoordinated:
      return "uncoord";
  }
  return "?";
}

std::unique_ptr<sim::ProtocolDriver> make_driver(Protocol protocol,
                                                 const ProtocolOptions& opts) {
  switch (protocol) {
    case Protocol::kAppDriven:
      return nullptr;
    case Protocol::kSyncAndStop:
      return std::make_unique<SyncAndStopDriver>(opts);
    case Protocol::kChandyLamport:
      return std::make_unique<ChandyLamportDriver>(opts);
    case Protocol::kKooToueg:
      return std::make_unique<KooTouegDriver>(opts);
    case Protocol::kCic:
      return std::make_unique<CicDriver>(opts);
    case Protocol::kUncoordinated:
      return std::make_unique<UncoordinatedDriver>(opts);
  }
  ACFC_CHECK_MSG(false, "unknown protocol");
}

ProtocolRunResult run_protocol(const mp::Program& program, Protocol protocol,
                               const sim::SimOptions& sim_opts,
                               const ProtocolOptions& proto_opts) {
  ProtocolRunResult out;
  out.protocol = protocol;
  auto driver = make_driver(protocol, proto_opts);
  sim::Engine engine(program, sim_opts, driver.get());
  out.sim = engine.run();
  if (const auto* sas = dynamic_cast<SyncAndStopDriver*>(driver.get()))
    out.rounds_completed = sas->rounds_completed();
  if (const auto* cl = dynamic_cast<ChandyLamportDriver*>(driver.get()))
    out.rounds_completed = cl->rounds_completed();
  if (const auto* kt = dynamic_cast<KooTouegDriver*>(driver.get()))
    out.rounds_completed = kt->rounds_completed();
  return out;
}

namespace {

/// The genuine protocols by their stable wire names, in Protocol order.
struct NamedProtocol {
  const char* name;
  Protocol protocol;
};
constexpr NamedProtocol kProtocols[] = {
    {"app-driven", Protocol::kAppDriven},
    {"sync-and-stop", Protocol::kSyncAndStop},
    {"chandy-lamport", Protocol::kChandyLamport},
    {"koo-toueg", Protocol::kKooToueg},
    {"cic", Protocol::kCic},
    {"uncoordinated", Protocol::kUncoordinated},
};

/// Detector geometry scales off the protocol interval: heartbeats 5x
/// faster than the timeout and a backoff ladder that tops out at one
/// interval. "supervised" times out after one interval, polls twice per
/// timeout and allows 3 restarts. The "supervised-fragile" negative
/// control times out and polls every quarter interval — shorter than
/// perturbations the explorer can inject — with a zero budget, so a
/// single false suspicion quarantines a healthy process: the wedge the
/// explorer must catch.
sim::SupervisorOptions supervisor_options(const ProtocolOptions& opts,
                                          bool fragile) {
  sim::SupervisorOptions so;
  so.detector.hb_interval = opts.interval / 5.0;
  so.detector.timeout = fragile ? opts.interval / 4.0 : opts.interval;
  so.detector.hb_bytes = opts.control_bytes;
  so.poll_interval = fragile ? opts.interval / 4.0 : opts.interval / 2.0;
  so.restart_budget = fragile ? 0 : 3;
  so.backoff_base = opts.interval / 10.0;
  so.backoff_factor = 2.0;
  so.backoff_max = opts.interval;
  return so;
}

}  // namespace

sim::DriverFactory driver_factory(Protocol protocol,
                                  const ProtocolOptions& opts) {
  return [protocol, opts] { return make_driver(protocol, opts); };
}

sim::DriverFactory driver_factory_by_name(const std::string& name,
                                          const ProtocolOptions& opts) {
  for (const NamedProtocol& row : kProtocols)
    if (name == row.name) return driver_factory(row.protocol, opts);
  if (name == "cic-broken")
    return [opts] { return std::make_unique<BrokenCicDriver>(opts); };
  if (name == "supervised" || name == "supervised-fragile")
    return [so = supervisor_options(opts, name == "supervised-fragile")] {
      return std::make_unique<sim::Supervisor>(so);
    };
  throw util::ProgramError("unknown protocol driver name: " + name);
}

std::vector<std::string> explorable_driver_names() {
  std::vector<std::string> names;
  for (const NamedProtocol& row : kProtocols) names.emplace_back(row.name);
  names.insert(names.end(),
               {"supervised", "cic-broken", "supervised-fragile"});
  return names;
}

std::optional<std::string> check_cic_index_invariant(
    const sim::SimResult& result) {
  const trace::Trace& trace = result.trace;
  const auto n = static_cast<size_t>(trace.nprocs);
  std::vector<long> counts(n, 0);
  // count_after[j]: the taking process's checkpoint count right after the
  // j-th checkpoint of the trace — the kCheckpoint events and
  // trace.checkpoints are appended in the same order, so the walk can
  // rewind counts through a rollback from the restored cut's members.
  std::vector<long> count_after;
  count_after.reserve(trace.checkpoints.size());
  size_t next_recovery = 0;
  for (const trace::EventRec& ev : trace.events) {
    switch (ev.kind) {
      case trace::EventKind::kCheckpoint: {
        const auto p = static_cast<size_t>(ev.proc);
        ++counts[p];
        count_after.push_back(counts[p]);
        break;
      }
      case trace::EventKind::kRecv: {
        const trace::MsgRec& msg =
            trace.messages.at(static_cast<size_t>(ev.msg_id));
        if (msg.control) break;
        if (counts[static_cast<size_t>(ev.proc)] < msg.piggyback) {
          return "CIC index invariant violated: proc " +
                 std::to_string(ev.proc) + " consumed msg " +
                 std::to_string(msg.id) + " (src " +
                 std::to_string(msg.src) + ", piggyback " +
                 std::to_string(msg.piggyback) + ") at checkpoint index " +
                 std::to_string(counts[static_cast<size_t>(ev.proc)]) +
                 " (t=" + std::to_string(ev.time) + ")";
        }
        break;
      }
      case trace::EventKind::kFailure: {
        // handle_failure records kFailure and a RecoveryRec 1:1 (a failure
        // after global completion records neither). Rewind every process's
        // count to its restored cut member.
        ACFC_CHECK_MSG(next_recovery < result.recoveries.size(),
                       "trace kFailure without a recovery record");
        const sim::RecoveryRec& rec = result.recoveries[next_recovery++];
        for (size_t p = 0; p < n; ++p) {
          const int member = rec.cut.member[p];
          counts[p] =
              member < 0 ? 0 : count_after.at(static_cast<size_t>(member));
        }
        break;
      }
      default:
        break;
    }
  }
  return std::nullopt;
}

long expected_control_messages(Protocol protocol, int nprocs) {
  const long n = nprocs;
  switch (protocol) {
    case Protocol::kSyncAndStop:
      return 5 * (n - 1);
    case Protocol::kChandyLamport:
      return 2 * n * (n - 1);
    case Protocol::kKooToueg:
      return 3 * (n - 1);  // dense worst case
    case Protocol::kAppDriven:
    case Protocol::kCic:
    case Protocol::kUncoordinated:
      return 0;
  }
  return 0;
}

}  // namespace acfc::proto
