/**
 * @file
 * The stable C API of libswiftrl: train SwiftRL's tabular learners
 * on the simulated PIM system, checkpoint/restore sessions, and
 * serve greedy actions from trained Q-tables — all through opaque
 * handles and typed error codes, so non-C++ embedders (Python ctypes,
 * Rust FFI, plain C services) can drive the library.
 *
 * ABI stability rules (see docs/ARCHITECTURE.md section 11):
 *
 *  - This header is pure C11; it never includes C++ headers and
 *    compiles under `-std=c11 -Wall -Werror` (capi/smoke_client.c is
 *    the CI proof).
 *  - Handles are opaque; their layout may change freely between
 *    releases. New capabilities arrive as new functions, never as
 *    struct fields.
 *  - Error codes are append-only: existing enumerator values never
 *    change or disappear.
 *  - Configuration travels as JSON strings (`params_json`), so new
 *    keys are backwards compatible; unknown keys are an error, which
 *    catches typos instead of silently training the wrong thing.
 *
 * Error handling: every fallible function returns a swiftrl_status.
 * On any non-OK return, swiftrl_last_error() gives a human-readable
 * reason (thread-local, valid until the calling thread's next API
 * call). Unlike the C++ layer — which treats invalid configuration
 * as a programming error and aborts — this boundary validates first
 * and reports, because an embedder's bad input must never kill the
 * embedding process.
 *
 * Training params_json keys (all optional unless noted). Integer
 * keys must hold integral numbers that fit their field; a fractional
 * or out-of-range value is SWIFTRL_ERR_PARSE, never truncated:
 *   "env"            (required) "frozenlake" | "frozenlake-det" |
 *                    "taxi" | "cliffwalking", or a procedural spec:
 *                    "lake:<side>" | "lake:<side>:det" (N x N lake),
 *                    "mptaxi:<side>x<P>" (multi-passenger taxi)
 *   "cores"          PIM cores to train on            (default 125)
 *   "host_threads"   simulation host threads; 0 = all (default 0)
 *   "transitions"    offline dataset size         (default 16384)
 *   "collect_seed"   dataset collection seed          (default 1234)
 *   "algo"           "qlearning" | "sarsa"     (default "qlearning")
 *   "sampling"       "seq" | "ran" | "str"          (default "seq")
 *   "format"         "fp32" | "int32"              (default "fp32")
 *   "alpha" "gamma" "epsilon"
 *                    learning rate, discount, SARSA exploration;
 *                    each finite and in [0, 1]
 *                                (default 0.1, 0.95, 0.05; Sec 4.1)
 *   "episodes"       training episodes, >= 1           (default 2000)
 *   "stride"         STR sampling stride, >= 1           (default 4)
 *   "seed"           training (LCG) seed                (default 42)
 *   "tau"            synchronisation period, >= 1      (default 50)
 *   "block_transitions"  staging block size, >= 1     (default 128)
 *   "tasklets"       threads per core, 1..24            (default 1)
 *   "weighted"       visit-weighted aggregation     (default false)
 *   "epsilon_decay"  per-round epsilon multiplier, in (0, 1]
 *                                                     (default 1.0)
 *   "shards"         Q-table shards for large state spaces; 0 =
 *                    whole-table replication; not with "weighted";
 *                    at most "cores" and the env's state count, and
 *                    each core's slice must fit its MRAM bank
 *                                                       (default 0)
 *
 * Serving serving_json keys (both optional; NULL json = defaults):
 *   "max_batch"      queries per batch                 (default 64)
 *   "max_wait_sec"   partial-batch flush deadline  (default 100e-6)
 */

#ifndef SWIFTRL_CAPI_SWIFTRL_H
#define SWIFTRL_CAPI_SWIFTRL_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/** Typed error codes. Append-only; values are ABI. */
typedef enum swiftrl_status {
    SWIFTRL_OK = 0,
    /** A pointer/range argument is invalid (NULL handle, state id
     *  out of range, negative count). */
    SWIFTRL_ERR_INVALID_ARGUMENT = 1,
    /** params_json failed to parse, or holds an unknown key or an
     *  out-of-range value. */
    SWIFTRL_ERR_PARSE = 2,
    /** The call is not legal in the handle's current state (stepping
     *  a finished session, finishing an unfinished one). */
    SWIFTRL_ERR_STATE = 3,
    /** A file could not be opened, read, or written. */
    SWIFTRL_ERR_IO = 4,
    /** A checkpoint or Q-table file failed its integrity checks
     *  (magic, checksum, format version). */
    SWIFTRL_ERR_CORRUPT = 5,
    /** A checkpoint does not match the params it is restored
     *  under (different workload, machine size, or hypers). */
    SWIFTRL_ERR_MISMATCH = 6,
} swiftrl_status;

/** A training session: one offline run, steppable round by round. */
typedef struct swiftrl_session swiftrl_session;

/** A serving handle: batched greedy-action queries on a Q-table. */
typedef struct swiftrl_policy swiftrl_policy;

/** Library version, "major.minor.patch". Static storage. */
const char *swiftrl_version(void);

/** Enumerator name of @p status ("SWIFTRL_ERR_IO"). Static
 *  storage; never NULL. */
const char *swiftrl_status_name(swiftrl_status status);

/**
 * Reason for the calling thread's most recent non-OK return; ""
 * when the last call succeeded. Thread-local; the pointer is valid
 * until this thread's next libswiftrl call.
 */
const char *swiftrl_last_error(void);

/* --- one-shot training ------------------------------------------- */

/**
 * Collect a dataset, train to completion, and write the final
 * Q-table to @p q_table_path — swiftrl_session_create + step-until-
 * done + finish in one call.
 */
swiftrl_status swiftrl_train(const char *params_json,
                             const char *q_table_path);

/* --- sessions ------------------------------------------------------ */

/**
 * Build a session from @p params_json: instantiate the environment,
 * collect the offline dataset, build the simulated machine, and
 * scatter the initial state. On SWIFTRL_OK, *out_session owns the
 * run; free with swiftrl_session_free.
 */
swiftrl_status swiftrl_session_create(const char *params_json,
                                      swiftrl_session **out_session);

/**
 * Run one synchronisation round (launch, gather, aggregate, reduce,
 * broadcast). On SWIFTRL_OK, *out_remaining (when non-NULL) holds
 * the episodes still to train; 0 means the run is ready for
 * swiftrl_session_finish. Stepping a session whose budget is
 * exhausted is SWIFTRL_ERR_STATE.
 */
swiftrl_status swiftrl_session_step(swiftrl_session *session,
                                    int *out_remaining);

/**
 * Persist the session's complete training state to @p path. Legal
 * between any two steps; the file restores — in this process or a
 * fresh one — to a run that finishes bit-identically to never
 * having stopped.
 */
swiftrl_status swiftrl_session_checkpoint(swiftrl_session *session,
                                          const char *path);

/**
 * Rebuild a session from a checkpoint file. @p params_json must
 * describe the checkpointed run (same machine size, workload,
 * hypers, and dataset parameters); a mismatch is
 * SWIFTRL_ERR_MISMATCH, never a silently different run.
 */
swiftrl_status swiftrl_session_restore(const char *params_json,
                                       const char *checkpoint_path,
                                       swiftrl_session **out_session);

/**
 * Issue the final retrieval and write the trained Q-table to
 * @p q_table_path. Legal once, after the episode budget is
 * exhausted (swiftrl_session_step reported 0 remaining); the
 * session is spent afterwards (free it).
 */
swiftrl_status swiftrl_session_finish(swiftrl_session *session,
                                      const char *q_table_path);

/** Synchronisation rounds completed so far; -1 on NULL. */
int swiftrl_session_rounds(const swiftrl_session *session);

/** Episodes still to train; -1 on NULL. */
int swiftrl_session_episodes_remaining(
    const swiftrl_session *session);

/** Destroy a session (any state). NULL is a no-op. */
void swiftrl_session_free(swiftrl_session *session);

/* --- policy serving ------------------------------------------------ */

/**
 * Load a trained Q-table file and start a batched greedy-action
 * server over it. @p serving_json configures the batcher (see file
 * comment); NULL means defaults. On SWIFTRL_OK, *out_policy owns
 * the server; free with swiftrl_policy_free.
 */
swiftrl_status swiftrl_policy_load(const char *q_table_path,
                                   const char *serving_json,
                                   swiftrl_policy **out_policy);

/**
 * Answer @p count queries: actions[i] = the greedy action of
 * states[i]. Blocks until served; concurrent callers from any
 * threads are coalesced into batches. Any out-of-range state fails
 * the whole call with SWIFTRL_ERR_INVALID_ARGUMENT (no partial
 * writes).
 */
swiftrl_status swiftrl_policy_act_batch(swiftrl_policy *policy,
                                        const int32_t *states,
                                        int32_t *actions,
                                        size_t count);

/** States (rows) of the loaded table; -1 on NULL. */
int32_t swiftrl_policy_num_states(const swiftrl_policy *policy);

/** Actions (columns) of the loaded table; -1 on NULL. */
int32_t swiftrl_policy_num_actions(const swiftrl_policy *policy);

/** Stop serving and destroy the handle. NULL is a no-op. */
void swiftrl_policy_free(swiftrl_policy *policy);

/* --- diagnostics --------------------------------------------------- */

/**
 * Dump the library's always-on flight recorder — the last ~256
 * span/log breadcrumbs from every subsystem — for post-mortem
 * diagnosis. With a non-NULL @p path, writes self-describing JSON
 * ({"schema":"swiftrl-flight-v1",...}) to that file and returns
 * SWIFTRL_ERR_IO if it cannot be written; with NULL, prints the
 * ring as text to stderr. Observation-only: dumping never perturbs
 * training or serving results.
 */
swiftrl_status swiftrl_dump_flight_record(const char *path);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* SWIFTRL_CAPI_SWIFTRL_H */
