/**
 * @file
 * The rollout loop behind every environment's rollout(): the one
 * place transitions are stepped and logged for dataset collection.
 *
 * Only the environment .cc files include this header, each ending in
 * `template class RolloutEnvironment<Env>;` so the loop is compiled
 * in the translation unit that defines Env::reset/step and they
 * inline into it.
 */

#ifndef SWIFTRL_RLENV_ROLLOUT_HH
#define SWIFTRL_RLENV_ROLLOUT_HH

#include <cstddef>
#include <cstdint>

#include "rlenv/environment.hh"

namespace swiftrl::rlenv {

namespace detail {

/**
 * Step @p env @p count times with actions from @p act, writing
 * transition i into entry i of @p out.
 *
 * The loop runs on local copies of the environment and the generator,
 * written back at the end, and everything it calls is inlined into it
 * (flatten): the terminal column is byte-typed and so may alias any
 * object, and a store to it would otherwise force the environment's
 * fields and the caller's generator to be reloaded on every step.
 * Without flatten GCC keeps each environment's step() an out-of-line
 * call from this loop (checked in objdump for FrozenLake and Taxi).
 *
 * An environment whose reset draws nothing offers restartIf(done),
 * and the loop restarts its episodes through it without a branch:
 * the done-or-not branch mispredicted at every episode end (13 % of
 * random-policy FrozenLake steps are terminal). The rest reset
 * through reset(), which may draw from the generator.
 */
template <typename Env, typename Act>
[[gnu::flatten]] void
rolloutLoop(Env &env, common::XorShift128 &rng, const Act act,
            std::size_t count, const RolloutColumns out)
{
    Env walker = env;
    common::XorShift128 gen = rng;
    StateId state = walker.reset(gen);
    for (std::size_t i = 0; i < count; ++i) {
        const ActionId action = act(state, gen);
        const StepResult r = walker.step(action, gen);
        out.states[i] = state;
        out.actions[i] = action;
        out.rewards[i] = r.reward;
        out.nextStates[i] = r.nextState;
        out.terminals[i] = static_cast<std::uint8_t>(r.terminated);
        if constexpr (requires { walker.restartIf(true); })
            state = walker.restartIf(r.done());
        else
            state = r.done() ? walker.reset(gen) : r.nextState;
    }
    rng = gen;
    env = walker;
}

} // namespace detail

template <typename Derived>
void
RolloutEnvironment<Derived>::rollout(const ActionPolicy *policy,
                                     std::size_t count,
                                     common::XorShift128 &rng,
                                     const RolloutColumns &out)
{
    auto &env = static_cast<Derived &>(*this);
    if (policy == nullptr) {
        const auto actions = static_cast<std::uint64_t>(env.numActions());
        detail::rolloutLoop(
            env, rng,
            [actions](StateId, common::XorShift128 &gen) {
                return static_cast<ActionId>(gen.nextBounded(actions));
            },
            count, out);
    } else {
        detail::rolloutLoop(
            env, rng,
            [policy](StateId state, common::XorShift128 &gen) {
                return (*policy)(state, gen);
            },
            count, out);
    }
}

} // namespace swiftrl::rlenv

#endif // SWIFTRL_RLENV_ROLLOUT_HH
