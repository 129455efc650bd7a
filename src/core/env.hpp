// Environment-variable parsing shared by the runtime escape hatches
// (NNCOMM_SIMD, NNCOMM_ADAPTIVE, NNCOMM_RMA).
#pragma once

namespace nncomm {

/// Case-insensitive whole-string match of an environment value against an
/// upper-case token ("off" and "oFf" both match "OFF").
inline bool env_equals(const char* value, const char* token) {
    for (; *value != '\0' && *token != '\0'; ++value, ++token) {
        const char c =
            (*value >= 'a' && *value <= 'z') ? static_cast<char>(*value - 'a' + 'A') : *value;
        if (c != *token) return false;
    }
    return *value == '\0' && *token == '\0';
}

/// On/off feature flag: unset, empty or anything but OFF/0/FALSE means on.
inline bool env_flag_enabled(const char* value) {
    if (value == nullptr) return true;
    return !(env_equals(value, "OFF") || env_equals(value, "0") || env_equals(value, "FALSE"));
}

}  // namespace nncomm
