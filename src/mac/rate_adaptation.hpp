#pragma once

// Per-station rate selection primitives. The Carpool frame format lets
// every subframe use its own MCS (paper Sec. 4.1: "Different subframes can
// adopt different MCSs"); this header holds the 802.11n single-stream
// threshold table and the pure SNR→rate lookup.
//
// Scheduling decisions no longer consume these tables directly: the
// per-STA LinkStateMachine (mac/link_state.hpp, docs/LINK_STATE.md) uses
// them as the static ceiling of its feedback hysteresis and hands
// ApQueues::build an explicit LinkSnapshot, whose accessors throw on the
// AP slot instead of silently returning a pinned placeholder rate.

#include <cstddef>

namespace carpool::mac {

/// 802.11n MCS0-7 rates at 20 MHz, 800 ns GI.
inline constexpr double kHtRates[] = {6.5e6,  13e6,   19.5e6, 26e6,
                                      39e6,   52e6,   58.5e6, 65e6};

/// SNR thresholds (dB) above which each rate is sustainable (typical
/// waterfall values for 10% PER on flat channels).
inline constexpr double kHtThresholds[] = {5, 8, 11, 14, 18, 22, 26, 28};

/// Highest rate whose threshold the SNR clears; never below the base rate.
double rate_for_snr(double snr_db);

}  // namespace carpool::mac
