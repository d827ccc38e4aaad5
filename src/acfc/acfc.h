// Umbrella header: the complete public API of the acfc library —
// Application-driven Coordination-Free Checkpointing (Agbaria & Sanders,
// ICDCS 2005) and every substrate it is built on.
//
//   mp     — MiniMP SPMD program IR: expressions, predicates, statements,
//            builder, DSL parser/printer, collective lowering, random
//            program generation.
//   cfg    — control flow graphs: construction, dominators, back edges,
//            loops, reachability, checkpoint enumeration (S_i).
//   attr   — path attributes and the Algorithm-3.1 contradiction test.
//   match  — Phase II: send/recv matching, the extended CFG Ĝ.
//   place  — Phase I (insertion/equalization) and Phase III (Condition 1
//            checking, Algorithm-3.2 repair).
//   sim    — discrete-event execution: FIFO messaging, local ticks,
//            checkpoint snapshots, failure injection, restart.
//   trace  — recovery-line analyses: cut consistency, straight cuts,
//            maximal recovery lines, R-graphs, zigzag cycles.
//   proto  — baseline protocols: Sync-and-Stop, Chandy–Lamport, CIC,
//            uncoordinated; measured coordination accounting.
//   perf   — the Section-4 stochastic model: absorbing Markov chains, the
//            closed-form Γ and overhead ratio, Figure 8/9 series.
//   store  — stable storage: checksummed records, restore chains,
//            manifests, storage faults, asynchronous persistence.
//   obs    — metric registry (counters, gauges, histograms, spans) and
//            its JSON-lines and chrome://tracing exporters.
//   explore — schedule-space model checking: systematic interleaving and
//            failure-point exploration, memoized DFS, counterexample
//            shrinking, replayable ACFX artifacts.
#pragma once

#include "attr/attr.h"
#include "cfg/cfg.h"
#include "explore/artifact.h"
#include "explore/explore.h"
#include "explore/settings.h"
#include "explore/shrink.h"
#include "explore/strategy.h"
#include "match/match.h"
#include "mp/builder.h"
#include "mp/expr.h"
#include "mp/generate.h"
#include "mp/lower.h"
#include "mp/parser.h"
#include "mp/pred.h"
#include "mp/printer.h"
#include "mp/stmt.h"
#include "mp/subst.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "workloads/workloads.h"
#include "perf/model.h"
#include "place/place.h"
#include "proto/chandy_lamport.h"
#include "proto/cic.h"
#include "proto/koo_toueg.h"
#include "proto/protocols.h"
#include "proto/sync_and_stop.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/vm.h"
#include "store/store.h"
#include "trace/analysis.h"
#include "trace/render.h"
#include "trace/trace.h"
#include "util/dot.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
