#include "common/rng.hh"

namespace swiftrl::common {

XorShift128::XorShift128(std::uint64_t seed)
{
    SplitMix64 mix(seed);
    _s0 = mix.next();
    _s1 = mix.next();
    // A zero state would lock the generator at zero forever.
    if (_s0 == 0 && _s1 == 0)
        _s1 = 0x9e3779b97f4a7c15ull;
}

XorShift128
XorShift128::split()
{
    XorShift128 child(next());
    return child;
}

} // namespace swiftrl::common
