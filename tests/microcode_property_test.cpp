// Property test for the Microcode toolchain: randomly generated
// expressions are compiled by the TC-style compiler, executed by the
// interpreter on a simulated PPE thread, and compared against a host-side
// reference evaluation of the same tree. Any mismatch is a code-gen or
// interpreter bug.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "microcode/compiler.hpp"
#include "microcode/interpreter.hpp"
#include "sim/random.hpp"
#include "trio/router.hpp"

namespace {

/// A random expression tree that respects one instruction's resource
/// budget (register reads and ALU ops) and never divides by zero.
struct ExprGen {
  sim::Rng& rng;
  int reads_left;
  int ops_left;
  // Values of ir1..ir3 (set by preamble instructions).
  std::uint64_t ir[4];

  struct Node {
    std::string text;
    std::uint64_t value;
  };

  Node leaf() {
    if (reads_left > 0 && rng.bernoulli(0.5)) {
      --reads_left;
      const int r = static_cast<int>(rng.uniform_int(1, 3));
      return {"ir" + std::to_string(r), ir[r]};
    }
    const std::uint64_t c = rng.next_below(1 << 16);
    return {std::to_string(c), c};
  }

  Node gen(int depth) {
    if (depth == 0 || ops_left == 0) return leaf();
    if (ops_left > 0 && rng.bernoulli(0.2)) {
      // Unary.
      --ops_left;
      Node a = gen(depth - 1);
      if (rng.bernoulli(0.5)) {
        return {"(~" + a.text + ")", ~a.value};
      }
      return {"(!" + a.text + ")", a.value == 0 ? 1ull : 0ull};
    }
    --ops_left;
    Node a = gen(depth - 1);
    Node b = gen(depth - 1);
    switch (rng.next_below(11)) {
      case 0: return {"(" + a.text + " + " + b.text + ")", a.value + b.value};
      case 1: return {"(" + a.text + " - " + b.text + ")", a.value - b.value};
      case 2: return {"(" + a.text + " * " + b.text + ")", a.value * b.value};
      case 3: return {"(" + a.text + " & " + b.text + ")", a.value & b.value};
      case 4: return {"(" + a.text + " | " + b.text + ")", a.value | b.value};
      case 5: return {"(" + a.text + " ^ " + b.text + ")", a.value ^ b.value};
      case 6: {
        const std::uint64_t sh = b.value % 64;
        return {"(" + a.text + " << (" + b.text + " % 64))", a.value << sh};
      }
      case 7: {
        const std::uint64_t sh = b.value % 64;
        return {"(" + a.text + " >> (" + b.text + " % 64))", a.value >> sh};
      }
      case 8:
        return {"(" + a.text + " == " + b.text + ")",
                a.value == b.value ? 1ull : 0ull};
      case 9:
        return {"(" + a.text + " < " + b.text + ")",
                a.value < b.value ? 1ull : 0ull};
      default:
        return {"(" + a.text + " && " + b.text + ")",
                (a.value != 0 && b.value != 0) ? 1ull : 0ull};
    }
  }
};

class MicrocodeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MicrocodeFuzz, ExpressionsMatchReferenceEvaluation) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 0x9e3779b9 + 17);
  for (int trial = 0; trial < 40; ++trial) {
    ExprGen gen{rng, /*reads_left=*/3, /*ops_left=*/6, {}};
    for (int r = 1; r <= 3; ++r) gen.ir[r] = rng.next_below(1 << 20);
    const auto node = gen.gen(3);

    // The `% 64` shift guards add ops+reads beyond the budget the
    // generator tracked; give this block a generous private budget (the
    // stock limits are exercised by microcode_test.cpp).
    microcode::InstructionLimits limits;
    limits.max_alu_ops = 64;
    limits.max_reg_reads = 16;

    const std::string source =
        "setup1:\nbegin\n  ir1 = " + std::to_string(gen.ir[1]) +
        ";\n  ir2 = " + std::to_string(gen.ir[2]) +
        ";\nend\nsetup2:\nbegin\n  ir3 = " + std::to_string(gen.ir[3]) +
        ";\nend\ncompute:\nbegin\n  ir0 = " + node.text +
        ";\nend\nstore:\nbegin\n  SmsWrite64(4096, ir0);\n  Exit();\nend\n";

    std::shared_ptr<const microcode::CompiledProgram> program;
    ASSERT_NO_THROW(program = microcode::compile(source, limits))
        << source;

    sim::Simulator sim;
    trio::Router router(sim, trio::Calibration{}, 1, 2);
    router.pfe(0).set_program_factory(
        microcode::make_program_factory(program));
    std::vector<std::uint8_t> payload(32, 0);
    auto frame = net::build_udp_frame(
        {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
        net::Ipv4Addr::from_octets(10, 0, 0, 1),
        net::Ipv4Addr::from_octets(10, 0, 0, 2), 1, 2, payload);
    router.receive(net::Packet::make(std::move(frame)), 0);
    sim.run();

    ASSERT_EQ(router.pfe(0).sms().peek_u64(4096), node.value)
        << "expression: " << node.text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MicrocodeFuzz, ::testing::Range(0, 8));

TEST(MicrocodeFuzzChains, RandomGotoChainsTerminateCorrectly) {
  // Random permutation chains: block i assigns a token and jumps to the
  // next; the final token must reflect the *traversal* order.
  sim::Rng rng(0xc4a1);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(3, 10));
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
      std::swap(order[static_cast<std::size_t>(i)],
                order[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
    }
    // Program visits blocks in `order`; each multiplies ir0 by 3 and
    // adds its index.
    std::uint64_t expected = 0;
    std::string source;
    for (int pos = 0; pos < n; ++pos) {
      const int block = order[static_cast<std::size_t>(pos)];
      expected = expected * 3 + static_cast<std::uint64_t>(block);
      source += "b";
      source += std::to_string(block) + ":\nbegin\n  ir0 = ir0 * 3 + " +
                std::to_string(block) + ";\n";
      if (pos + 1 < n) {
        source += "  goto b" +
                  std::to_string(order[static_cast<std::size_t>(pos + 1)]) +
                  ";\n";
      } else {
        source += "  goto fin;\n";
      }
      source += "end\n";
    }
    source += "fin:\nbegin\n  SmsWrite64(8192, ir0);\n  Exit();\nend\n";
    // The entry block must be the traversal's first block: rotate the
    // text so it comes first. Simpler: prepend an entry jump.
    source = "entry:\nbegin\n  goto b" +
             std::to_string(order[0]) + ";\nend\n" + source;

    auto program = microcode::compile(source);
    sim::Simulator sim;
    trio::Router router(sim, trio::Calibration{}, 1, 2);
    router.pfe(0).set_program_factory(
        microcode::make_program_factory(program));
    std::vector<std::uint8_t> payload(16, 0);
    router.receive(
        net::Packet::make(net::build_udp_frame(
            {1, 1, 1, 1, 1, 1}, {2, 2, 2, 2, 2, 2},
            net::Ipv4Addr::from_octets(1, 1, 1, 1),
            net::Ipv4Addr::from_octets(2, 2, 2, 2), 1, 2, payload)),
        0);
    sim.run();
    ASSERT_EQ(router.pfe(0).sms().peek_u64(8192), expected);
  }
}

}  // namespace
