#pragma once

// Old home of mac::DomainSim, now declared in mac/simulator.hpp beside
// its SimConfig. Only bench/e2e still includes this name.

#include "mac/simulator.hpp"
