#pragma once

// Old home of the JSON module, now common/json.hpp. Only bench/e2e still
// names these through carpool::chaos; new code includes common/json.hpp.

#include "common/json.hpp"

namespace carpool::chaos {
using carpool::JsonArray, carpool::JsonObject, carpool::JsonParseResult,
    carpool::JsonValue, carpool::json_dump, carpool::json_parse,
    carpool::json_set, carpool::json_to_u64;
}  // namespace carpool::chaos
