#include "fec/scrambler.hpp"

#include <array>
#include <stdexcept>

namespace carpool {

Scrambler::Scrambler(std::uint8_t seed) : state_(0) { reset(seed); }

void Scrambler::reset(std::uint8_t seed) {
  seed &= 0x7F;
  if (seed == 0) throw std::invalid_argument("Scrambler seed must be nonzero");
  state_ = seed;
}

std::uint8_t Scrambler::next_bit() noexcept {
  // Feedback = x^7 xor x^4 (bits 6 and 3 of the 7-bit register).
  const std::uint8_t feedback =
      static_cast<std::uint8_t>(((state_ >> 6) ^ (state_ >> 3)) & 1u);
  state_ = static_cast<std::uint8_t>(((state_ << 1) | feedback) & 0x7F);
  return feedback;
}

Bits Scrambler::process(std::span<const std::uint8_t> bits) {
  // Eight LFSR steps per lookup: for each state, the 8 bits next_bit()
  // emits from it (the first in bit 0) and the state it ends in.
  struct Step {
    std::uint8_t bits;
    std::uint8_t next;
  };
  static const std::array<Step, 128> kSteps = [] {
    std::array<Step, 128> steps{};
    for (unsigned seed = 1; seed < steps.size(); ++seed) {
      Scrambler lfsr(static_cast<std::uint8_t>(seed));
      for (unsigned b = 0; b < 8; ++b) {
        steps[seed].bits |= static_cast<std::uint8_t>(lfsr.next_bit() << b);
      }
      steps[seed].next = lfsr.state_;
    }
    return steps;
  }();

  Bits out(bits.size());
  std::size_t i = 0;
  for (; i + 8 <= bits.size(); i += 8) {
    const Step step = kSteps[state_];
    for (unsigned b = 0; b < 8; ++b) {
      out[i + b] =
          static_cast<std::uint8_t>((bits[i + b] ^ (step.bits >> b)) & 1u);
    }
    state_ = step.next;
  }
  for (; i < bits.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((bits[i] ^ next_bit()) & 1u);
  }
  return out;
}

}  // namespace carpool
