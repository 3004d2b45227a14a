// ECC datapath power: maximum cycle power of a Hamming decoder under three
// traffic models — clean codewords, codewords with single-bit errors, and
// raw random inputs. Error traffic lights up the correction cones, shifting
// both average and maximum power: a concrete instance of the paper's
// category I.2 (the achievable maximum depends on the input constraint).
//
//   ./ecc_power [--data 16] [--epsilon 0.08] [--seed 1]
#include <cstdio>
#include <exception>
#include <iostream>

#include "mpe.hpp"

namespace {

using namespace mpe;

/// Generates consecutive codeword pairs for the decoder: each cycle carries
/// a fresh random data word, optionally corrupted in one random bit.
class CodewordPairGenerator final : public vec::PairGenerator {
 public:
  CodewordPairGenerator(const circuit::Netlist& encoder, std::size_t n,
                        bool inject_error)
      : encoder_(encoder), n_(n), inject_error_(inject_error) {}

  void generate_into(Rng& rng, vec::VectorPair& out) const override {
    out.first = codeword(rng);
    out.second = codeword(rng);
  }
  std::size_t width() const override { return n_; }
  std::string description() const override {
    return inject_error_ ? "codewords with single-bit errors"
                         : "clean codewords";
  }

 private:
  vec::InputVector codeword(Rng& rng) const {
    vec::InputVector data(encoder_.num_inputs());
    for (auto& b : data) b = rng.bernoulli(0.5) ? 1 : 0;
    const auto values = circuit::evaluate(encoder_, data);
    vec::InputVector code(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      code[i] = values[encoder_.outputs()[i]];
    }
    if (inject_error_) code[rng.below(n_)] ^= 1;
    return code;
  }

  const circuit::Netlist& encoder_;
  std::size_t n_;
  bool inject_error_;
};

}  // namespace

int main(int argc, char** argv) try {
  const Cli cli(argc, argv);
  cli.check_known({"data", "epsilon", "seed"});
  const auto k = static_cast<std::size_t>(cli.get_int("data", 16));
  const double epsilon = cli.get_double("epsilon", 0.08);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));

  auto encoder = gen::hamming_encoder(k, "enc");
  auto decoder = gen::hamming_decoder(k, "dec");
  const std::size_t n = k + gen::hamming_parity_bits(k);
  std::printf(
      "Hamming(%zu,%zu) decoder power under constrained traffic "
      "(%zu gates)\n\n",
      n, k, decoder.num_gates());

  Table table({"traffic", "avg power (mW)", "est. max power (mW)",
               "90% CI (mW)", "units"});
  auto run = [&](const vec::PairGenerator& gen_ref) {
    sim::CyclePowerEvaluator evaluator(decoder);
    vec::StreamingPopulation population(gen_ref, evaluator);
    Rng probe_rng(seed + 1);
    double avg = 0.0;
    const int probe_n = 400;
    for (int i = 0; i < probe_n; ++i) avg += population.draw(probe_rng);
    avg /= probe_n;

    maxpower::EstimatorOptions options;
    options.epsilon = epsilon;
    const auto r = maxpower::estimate_max_power(population, options, seed);
    table.add_row({gen_ref.description(), Table::num(avg, 4),
                   Table::num(r.estimate, 4),
                   "[" + Table::num(r.ci.lower, 3) + ", " +
                       Table::num(r.ci.upper, 3) + "]",
                   Table::integer(static_cast<long long>(r.units_used))});
  };

  const CodewordPairGenerator clean(encoder, n, false);
  const CodewordPairGenerator errors(encoder, n, true);
  const vec::UniformPairGenerator uniform(n);
  run(clean);
  run(errors);
  run(uniform);
  std::cout << table;
  std::printf(
      "\nClean traffic keeps the syndrome cones quiet. Injected errors fire "
      "the\ncorrection logic every single cycle, pushing the maximum above "
      "even raw\nrandom inputs (which are only sometimes invalid) — the "
      "realistic worst case\nis a property of the input constraint, which "
      "is exactly what the paper's\ncategory I.2 formulation captures.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
