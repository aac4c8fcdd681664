/**
 * @file
 * Dataset pins: for every registry environment, two seeds and two
 * behaviour policies, an FNV-1a digest of the five collected columns
 * must equal the constant recorded when the pins were introduced.
 *
 * Every modelled number in this repository is computed from a
 * collected dataset, so a pin that holds proves that a change to the
 * collection path (the RNG, an environment's dynamics, the rollout
 * loop) left every one of those numbers where it was. A pin may only
 * change together with a deliberate change of the dynamics.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "rlcore/collection.hh"
#include "rlcore/dataset.hh"
#include "rlenv/registry.hh"

namespace {

using namespace swiftrl::rlcore;

/** FNV-1a 64 continued across buffers. */
class Fnv1a
{
  public:
    template <typename T, typename Alloc>
    void
    add(const std::vector<T, Alloc> &column)
    {
        const auto *bytes =
            reinterpret_cast<const unsigned char *>(column.data());
        for (std::size_t i = 0; i < column.size() * sizeof(T); ++i) {
            _hash ^= bytes[i];
            _hash *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return _hash; }

  private:
    std::uint64_t _hash = 0xcbf29ce484222325ull;
};

std::uint64_t
digestOf(const Dataset &d)
{
    Fnv1a h;
    h.add(d.states());
    h.add(d.actions());
    h.add(d.rewards());
    h.add(d.nextStates());
    h.add(d.terminals());
    return h.value();
}

enum class Policy { Random, EpsilonGreedy };

struct Pin
{
    const char *env;
    std::uint64_t seed;
    Policy policy;
    std::uint64_t digest;
};

void
PrintTo(const Pin &pin, std::ostream *os)
{
    *os << pin.env << " seed " << pin.seed
        << (pin.policy == Policy::Random ? " random" : " epsilon-greedy");
}

/** Enough transitions for hundreds of episodes in every env. */
constexpr std::size_t kTransitions = 20000;

Dataset
collect(const Pin &pin)
{
    auto env = swiftrl::rlenv::makeEnvironment(pin.env);
    if (pin.policy == Policy::Random)
        return collectRandomDataset(*env, kTransitions, pin.seed);
    // A seeded arbitrary table, so the greedy branch visits every
    // action and the ε branch draws from the rollout stream.
    QTable q(env->numStates(), env->numActions());
    q.initArbitrary(pin.seed + 100);
    return collectPolicyDataset(*env, makeEpsilonGreedyPolicy(q, 0.3f),
                                kTransitions, pin.seed);
}

class DatasetPins : public ::testing::TestWithParam<Pin>
{
};

TEST_P(DatasetPins, DigestMatchesRecordedConstant)
{
    const Pin &pin = GetParam();
    const Dataset data = collect(pin);
    ASSERT_EQ(data.size(), kTransitions);
    EXPECT_EQ(digestOf(data), pin.digest)
        << std::hex << "0x" << digestOf(data) << "ull";
}

const Pin kPins[] = {
    {"frozenlake", 1, Policy::Random,
     0xb12406a6ab9563abull},
    {"frozenlake", 7, Policy::Random,
     0x4dc99f24e73392d8ull},
    {"frozenlake", 1, Policy::EpsilonGreedy,
     0x3fd2b8b067a82e74ull},
    {"frozenlake", 7, Policy::EpsilonGreedy,
     0xa2330167d6d61e88ull},
    {"frozenlake-det", 1, Policy::Random,
     0xbdf982b1556cf1cbull},
    {"frozenlake-det", 7, Policy::Random,
     0x6d2a2dc06423f686ull},
    {"frozenlake-det", 1, Policy::EpsilonGreedy,
     0x87ecbd0967746901ull},
    {"frozenlake-det", 7, Policy::EpsilonGreedy,
     0x1b01d0911dc9be1eull},
    {"taxi", 1, Policy::Random,
     0x885c226ba50b5efdull},
    {"taxi", 7, Policy::Random,
     0x4d604a36a8f704a9ull},
    {"taxi", 1, Policy::EpsilonGreedy,
     0x8882cffef15de1d2ull},
    {"taxi", 7, Policy::EpsilonGreedy,
     0xd18e6c7de9cfae52ull},
    {"cliffwalking", 1, Policy::Random,
     0xebc465e612f38466ull},
    {"cliffwalking", 7, Policy::Random,
     0x48f9134ba7809bc0ull},
    {"cliffwalking", 1, Policy::EpsilonGreedy,
     0x717b415eba9a432eull},
    {"cliffwalking", 7, Policy::EpsilonGreedy,
     0x4325e35952c38aa9ull},
    {"lake:12", 1, Policy::Random,
     0xcc6b9d270544292full},
    {"lake:12", 7, Policy::Random,
     0x7725a2472bcba907ull},
    {"lake:12", 1, Policy::EpsilonGreedy,
     0x72c00aaae98b69a4ull},
    {"lake:12", 7, Policy::EpsilonGreedy,
     0x2b2f5b4e721b61feull},
    {"mptaxi:5x3", 1, Policy::Random,
     0x8f40a2d888d5ea3cull},
    {"mptaxi:5x3", 7, Policy::Random,
     0x32f1837319e5d7d4ull},
    {"mptaxi:5x3", 1, Policy::EpsilonGreedy,
     0xf42b8fdddf4f0803ull},
    {"mptaxi:5x3", 7, Policy::EpsilonGreedy,
     0x3165089df2584b2bull},
};

std::string
pinName(const ::testing::TestParamInfo<Pin> &info)
{
    std::string name = info.param.env;
    for (char &c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    }
    name += info.param.policy == Policy::Random ? "_random" : "_egreedy";
    return name + "_seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(EveryRegistryEnv, DatasetPins,
                         ::testing::ValuesIn(kPins), pinName);

} // namespace
