/**
 * @file
 * Bounded-retry recovery policy shared by both trainers.
 *
 * The command stream reports faults (pimsim::CommandStatus) but never
 * recovers on its own — what to do about a fault is training-loop
 * policy. The trainers use one shared loop (runWithRecovery):
 *
 *  - TransientKernel / CorruptGather: charge a modelled backoff delay
 *    to the Recovery track, then reissue the command. A failed
 *    command has no functional effect and retries are fresh fault
 *    sites, so a retried run converges to the *bit-identical* Q of a
 *    fault-free run.
 *  - PermanentDropout: hand the error to the caller's dropout
 *    handler first (chunk redistribution over the survivors plus an
 *    aggregate-Q re-broadcast — or a fatal error where redistribution
 *    is impossible, e.g. multi-agent mode), then reissue. The
 *    redistribution transfers are the recovery cost; no extra
 *    backoff is charged on top.
 *
 * When a command still fails after `limit` retries the run dies
 * loudly ("retry limit ... exhausted") — a fault rate the policy
 * cannot absorb is an experiment-configuration error, and
 * docs/ARCHITECTURE.md §8 says those die, not limp.
 */

#ifndef SWIFTRL_SWIFTRL_RETRY_POLICY_HH
#define SWIFTRL_SWIFTRL_RETRY_POLICY_HH

#include <string>
#include <string_view>

#include "common/logging.hh"
#include "pimsim/command_stream.hh"
#include "pimsim/fault_plan.hh"

namespace swiftrl {

/** How a trainer responds to faulted commands. */
struct RetryPolicy
{
    /** Retries per command before giving up (attempts = 1 + limit). */
    int limit = 3;

    /**
     * Modelled host delay before the first retry of a transient or
     * corruption fault (fault-status clear + command re-setup). See
     * docs/COSTMODEL.md.
     */
    double backoffSec = 50.0e-6;

    /** Growth factor of the backoff across consecutive retries. */
    double backoffMultiplier = 2.0;

    /** Backoff before retry number @p retry (0-based), seconds. */
    double
    backoffFor(int retry) const
    {
        double b = backoffSec;
        for (int i = 0; i < retry; ++i)
            b *= backoffMultiplier;
        return b;
    }
};

/** Empty when @p policy is valid, else the reason (part of
 *  sessionConfigInvalidReason). */
inline std::string
retryPolicyInvalidReason(const RetryPolicy &policy)
{
    using common::detail::concat;
    if (policy.limit < 0)
        return concat("retry.limit must be >= 0, got ", policy.limit);
    if (!(policy.backoffSec >= 0.0))
        return concat("retry.backoffSec must be >= 0, got ",
                      policy.backoffSec);
    if (!(policy.backoffMultiplier >= 1.0))
        return concat("retry.backoffMultiplier must be >= 1, got ",
                      policy.backoffMultiplier);
    return "";
}

/**
 * Issue a fault-eligible command until it completes or the policy is
 * exhausted. @p attempt enqueues the command once and returns its
 * CommandStatus; @p on_dropout recovers from a permanent core loss
 * (redistribute, or die where that is impossible) before the reissue.
 * Fatal with "retry limit ... exhausted" when retries run out.
 * @return total modelled seconds across attempts and backoffs.
 */
template <typename AttemptFn, typename DropoutFn>
double
runWithRecovery(pimsim::CommandStream &stream,
                const RetryPolicy &policy, std::string_view what,
                AttemptFn &&attempt, DropoutFn &&on_dropout)
{
    double seconds = 0.0;
    int retries = 0;
    for (;;) {
        const pimsim::CommandStatus status = attempt();
        seconds += status.seconds;
        if (status.ok())
            return seconds;
        if (retries >= policy.limit) {
            SWIFTRL_FATAL(
                "retry limit (", policy.limit, ") exhausted for ",
                what, ": last fault ",
                faultKindName(status.error->kind), " at site ",
                status.error->site, " hit ", status.error->dpus.size(),
                " core(s)");
        }
        if (status.error->kind ==
            pimsim::FaultKind::PermanentDropout) {
            on_dropout(*status.error);
        } else {
            seconds += stream.recoveryDelay(
                policy.backoffFor(retries), "backoff:retry");
        }
        ++retries;
    }
}

/**
 * Count the failed command attempts recorded on a timeline (Recovery
 * events labelled "fault:<kind>") — how trainers fill
 * `faultsDetected` without keeping a parallel counter.
 */
inline int
countFaultEvents(const pimsim::Timeline &timeline)
{
    int n = 0;
    for (const auto &event : timeline.events()) {
        if (event.label.rfind("fault:", 0) == 0)
            ++n;
    }
    return n;
}

} // namespace swiftrl

#endif // SWIFTRL_SWIFTRL_RETRY_POLICY_HH
