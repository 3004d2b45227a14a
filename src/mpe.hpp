// Umbrella header: the full public API of the mpe library.
//
// Layering (each layer depends only on the ones above it):
//   util    — RNG, special functions, solvers, contracts
//   stats   — distributions, descriptive statistics, fitting, tests
//   evt     — extreme-value machinery (block maxima, Weibull MLE, PWM)
//   circuit — netlist model, gate library, .bench I/O
//   gen     — circuit generators and ISCAS-85-like presets
//   sim     — power/delay models, zero-delay and event-driven simulators
//   vec     — vector pairs, pair generators, populations, power databases
//   maxpower— the DAC'98 estimator, SRS and quantile baselines
//   maxdelay— EVT-based maximum-delay estimation (extension)
//   dist    — distributed campaign control plane (coordinator/worker)
#pragma once

#include "util/atomic_file.hpp"
#include "util/cli.hpp"
#include "util/contracts.hpp"
#include "util/crc32.hpp"
#include "util/deadline.hpp"
#include "util/jsonl.hpp"
#include "util/math.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

#include "stats/chi_squared.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "stats/frechet.hpp"
#include "stats/gev.hpp"
#include "stats/gumbel.hpp"
#include "stats/anderson_darling.hpp"
#include "stats/ks.hpp"
#include "stats/least_squares.hpp"
#include "stats/normal.hpp"
#include "stats/optimize.hpp"
#include "stats/student_t.hpp"
#include "stats/weibull.hpp"

#include "evt/block_maxima.hpp"
#include "evt/bootstrap.hpp"
#include "evt/confidence.hpp"
#include "evt/domain.hpp"
#include "evt/fisher.hpp"
#include "evt/pwm.hpp"
#include "evt/weibull_mle.hpp"

#include "circuit/analysis.hpp"
#include "circuit/bench_io.hpp"
#include "circuit/builder.hpp"
#include "circuit/gate.hpp"
#include "circuit/netlist.hpp"
#include "circuit/prob_analysis.hpp"
#include "circuit/verilog_io.hpp"

#include "gen/arithmetic.hpp"
#include "gen/datapath.hpp"
#include "gen/ecc.hpp"
#include "gen/presets.hpp"
#include "gen/random_dag.hpp"
#include "gen/trees.hpp"

#include "sim/delay.hpp"
#include "sim/batch_event_sim.hpp"
#include "sim/event_sim.hpp"
#include "sim/power_eval.hpp"
#include "sim/power_profile.hpp"
#include "sim/technology.hpp"
#include "sim/timing.hpp"
#include "sim/vcd.hpp"
#include "sim/cpu_dispatch.hpp"
#include "sim/gate_program.hpp"
#include "sim/simd_sim.hpp"
#include "sim/zero_delay_sim.hpp"

#include "vectors/fault_injection.hpp"
#include "vectors/generators.hpp"
#include "vectors/input_vector.hpp"
#include "vectors/markov.hpp"
#include "vectors/parallel_db.hpp"
#include "vectors/population.hpp"
#include "vectors/power_db.hpp"
#include "vectors/serialize.hpp"

#include "maxpower/bounds.hpp"
#include "maxpower/campaign.hpp"
#include "maxpower/checkpoint.hpp"
#include "maxpower/circuit_cache.hpp"
#include "maxpower/engine.hpp"
#include "maxpower/estimator.hpp"
#include "maxpower/hyper_sample.hpp"
#include "maxpower/ledger.hpp"
#include "maxpower/options_fields.hpp"
#include "maxpower/quantile_baseline.hpp"
#include "maxpower/run_context.hpp"
#include "maxpower/run_report.hpp"
#include "maxpower/shard.hpp"
#include "maxpower/srs.hpp"
#include "maxpower/search_baselines.hpp"
#include "maxpower/stopping.hpp"
#include "maxpower/tail_fitter.hpp"
#include "maxpower/theory.hpp"
#include "maxpower/unit_source.hpp"

#include "maxdelay/delay_estimator.hpp"

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "dist/worker.hpp"
#include "dist/worker_hub.hpp"
#include "server/server.hpp"
#include "server/server_core.hpp"
#include "server/server_protocol.hpp"

#include "seq/seq_bench_io.hpp"
#include "seq/seq_gen.hpp"
#include "seq/seq_netlist.hpp"
#include "seq/seq_presets.hpp"
#include "seq/seq_sim.hpp"
