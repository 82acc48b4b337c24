#include "noise/measure.h"

namespace matcha::noise {

double phase_error(const SecretKeyset& sk, const LweSample& c, int expected_bit) {
  const Torus32 phase = lwe_phase(sk.lwe, c);
  const Torus32 ideal = expected_bit ? sk.params.mu()
                                     : static_cast<Torus32>(-sk.params.mu());
  return torus32_to_double(static_cast<Torus32>(phase - ideal));
}

} // namespace matcha::noise
