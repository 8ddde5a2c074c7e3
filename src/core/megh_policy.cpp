#include "core/megh_policy.hpp"

namespace megh {

MeghPolicy::MeghPolicy(const MeghConfig& config)
    : HierarchicalMeghPolicy(config, OnePod{}) {}

}  // namespace megh
