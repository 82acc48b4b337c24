#include "tfhe/bootstrap.h"

#include "fft/double_fft.h"
#include "fft/lift_fft.h"
#include "fft/simd_fft.h"

namespace matcha {

template struct BootstrapWorkspace<DoubleFftEngine>;
template struct BootstrapWorkspace<LiftFftEngine>;
template struct BootstrapWorkspace<SimdFftEngine>;

// bootstrap_batch reaches every other batched entry point
// (bootstrap_wo_keyswitch_batch -> rotate_extract_batch -> blind_rotate_batch).
template void bootstrap_batch<DoubleFftEngine>(
    const DoubleFftEngine&, const DeviceBootstrapKey<DoubleFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<DoubleFftEngine>&, KeySwitchWorkspace&);
template void bootstrap_batch<LiftFftEngine>(
    const LiftFftEngine&, const DeviceBootstrapKey<LiftFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<LiftFftEngine>&, KeySwitchWorkspace&);
template void bootstrap_batch<SimdFftEngine>(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&,
    const KeySwitchKey&, Torus32, const LweSample* const*, LweSample* const*,
    int, BootstrapWorkspace<SimdFftEngine>&, KeySwitchWorkspace&);

template void classic_bootstrap_wo_keyswitch_into<DoubleFftEngine>(
    const DoubleFftEngine&, const DeviceBootstrapKey<DoubleFftEngine>&, Torus32,
    const LweSample&, BootstrapWorkspace<DoubleFftEngine>&, LweSample&);
template void classic_bootstrap_wo_keyswitch_into<LiftFftEngine>(
    const LiftFftEngine&, const DeviceBootstrapKey<LiftFftEngine>&, Torus32,
    const LweSample&, BootstrapWorkspace<LiftFftEngine>&, LweSample&);
template void classic_bootstrap_wo_keyswitch_into<SimdFftEngine>(
    const SimdFftEngine&, const DeviceBootstrapKey<SimdFftEngine>&, Torus32,
    const LweSample&, BootstrapWorkspace<SimdFftEngine>&, LweSample&);

} // namespace matcha
