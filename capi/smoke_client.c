/*
 * Pure-C11 smoke client for libswiftrl — the CI proof that the C API
 * header compiles as C and that a C embedder can drive the library
 * end to end: train FrozenLake, checkpoint/restore a session across
 * handles, verify the restored run's Q-table is byte-identical to an
 * uninterrupted one, then serve greedy actions from the trained
 * table. Exercises the error paths too (bad JSON, mismatched
 * restore, missing files, out-of-range queries).
 *
 * Exits 0 on success; prints the first failing check and exits 1
 * otherwise.
 */

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

#include "capi/swiftrl.h"

static int g_failures = 0;

#define CHECK(cond)                                                  \
    do {                                                             \
        if (!(cond)) {                                               \
            fprintf(stderr, "FAIL %s:%d: %s (last_error: %s)\n",     \
                    __FILE__, __LINE__, #cond, swiftrl_last_error()); \
            ++g_failures;                                            \
        }                                                            \
    } while (0)

static const char *kParams =
    "{\"env\": \"frozenlake\", \"cores\": 4, \"transitions\": 2048,"
    " \"algo\": \"qlearning\", \"episodes\": 60, \"tau\": 20,"
    " \"seed\": 42}";

/* Read a whole file; returns NULL on failure. Caller frees. */
static unsigned char *
read_file(const char *path, long *out_size)
{
    FILE *f = fopen(path, "rb");
    if (f == NULL)
        return NULL;
    if (fseek(f, 0, SEEK_END) != 0) {
        fclose(f);
        return NULL;
    }
    const long size = ftell(f);
    if (size < 0) {
        fclose(f);
        return NULL;
    }
    rewind(f);
    unsigned char *bytes = malloc((size_t)size);
    if (bytes == NULL || fread(bytes, 1, (size_t)size, f) !=
                             (size_t)size) {
        free(bytes);
        fclose(f);
        return NULL;
    }
    fclose(f);
    *out_size = size;
    return bytes;
}

static void
check_files_identical(const char *a_path, const char *b_path)
{
    long a_size = 0, b_size = 0;
    unsigned char *a = read_file(a_path, &a_size);
    unsigned char *b = read_file(b_path, &b_size);
    CHECK(a != NULL && b != NULL);
    if (a != NULL && b != NULL) {
        CHECK(a_size == b_size);
        CHECK(memcmp(a, b, (size_t)a_size) == 0);
    }
    free(a);
    free(b);
}

int
main(void)
{
    printf("libswiftrl %s\n", swiftrl_version());

    /* Error paths first: none of these may touch the filesystem. */
    swiftrl_session *session = NULL;
    CHECK(swiftrl_session_create("not json", &session) ==
          SWIFTRL_ERR_PARSE);
    CHECK(session == NULL);
    CHECK(strlen(swiftrl_last_error()) > 0);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"torpor\": 1}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"tau\": 0}",
                                 &session) == SWIFTRL_ERR_PARSE);
    /* Hyper-parameters outside [0, 1] and integers that are
     * fractional or do not fit their field are refused, not cast. */
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"algo\": \"sarsa\","
                                 " \"epsilon\": 1e10}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(strstr(swiftrl_last_error(), "hyper.epsilon") != NULL);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"alpha\": -1}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(strstr(swiftrl_last_error(), "hyper.alpha") != NULL);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"cores\": 1e300}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"episodes\": 4294967297}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(swiftrl_session_create("{\"env\": \"frozenlake\","
                                 " \"tau\": 2.5}",
                                 &session) == SWIFTRL_ERR_PARSE);
    CHECK(session == NULL);
    CHECK(swiftrl_session_step(NULL, NULL) ==
          SWIFTRL_ERR_INVALID_ARGUMENT);

    swiftrl_policy *policy = NULL;
    CHECK(swiftrl_policy_load("no_such_file.qt", NULL, &policy) ==
          SWIFTRL_ERR_IO);
    CHECK(policy == NULL);

    /* One-shot training: the uninterrupted reference run. */
    CHECK(swiftrl_train(kParams, "smoke_full.qt") == SWIFTRL_OK);

    /* The same run, interrupted: step once, checkpoint, destroy the
     * handle, restore into a fresh one, finish. */
    CHECK(swiftrl_session_create(kParams, &session) == SWIFTRL_OK);
    CHECK(session != NULL);
    int remaining = -1;
    CHECK(swiftrl_session_step(session, &remaining) == SWIFTRL_OK);
    CHECK(remaining == 40); /* 60 episodes, tau 20, one round done */
    CHECK(swiftrl_session_rounds(session) == 1);
    CHECK(swiftrl_session_finish(session, "unused.qt") ==
          SWIFTRL_ERR_STATE); /* budget not exhausted yet */
    CHECK(swiftrl_session_checkpoint(session, "smoke.ck") ==
          SWIFTRL_OK);
    swiftrl_session_free(session);
    session = NULL;

    /* Restoring under different params must be refused... */
    CHECK(swiftrl_session_restore(
              "{\"env\": \"frozenlake\", \"cores\": 4,"
              " \"transitions\": 2048,"
              " \"episodes\": 60, \"tau\": 10, \"seed\": 42}",
              "smoke.ck", &session) == SWIFTRL_ERR_MISMATCH);
    CHECK(session == NULL);
    /* ...and a corrupt checkpoint detected. */
    CHECK(swiftrl_session_restore(kParams, "smoke_full.qt",
                                  &session) == SWIFTRL_ERR_CORRUPT);

    CHECK(swiftrl_session_restore(kParams, "smoke.ck", &session) ==
          SWIFTRL_OK);
    CHECK(session != NULL);
    CHECK(swiftrl_session_rounds(session) == 1);
    while (swiftrl_session_episodes_remaining(session) > 0)
        CHECK(swiftrl_session_step(session, NULL) == SWIFTRL_OK);
    CHECK(swiftrl_session_step(session, NULL) == SWIFTRL_ERR_STATE);
    CHECK(swiftrl_session_finish(session, "smoke_resumed.qt") ==
          SWIFTRL_OK);
    swiftrl_session_free(session);

    /* The restore contract, observed through the ABI: both Q-table
     * files are byte-identical. */
    check_files_identical("smoke_full.qt", "smoke_resumed.qt");

    /* Serve the trained table. */
    CHECK(swiftrl_policy_load("smoke_full.qt",
                              "{\"max_batch\": 8,"
                              " \"max_wait_sec\": 0.0001}",
                              &policy) == SWIFTRL_OK);
    CHECK(policy != NULL);
    const int32_t num_states = swiftrl_policy_num_states(policy);
    const int32_t num_actions = swiftrl_policy_num_actions(policy);
    CHECK(num_states == 16); /* FrozenLake 4x4 */
    CHECK(num_actions == 4);

    int32_t states[16];
    int32_t actions[16];
    for (int32_t s = 0; s < num_states; ++s) {
        states[s] = s;
        actions[s] = -1;
    }
    CHECK(swiftrl_policy_act_batch(policy, states, actions,
                                   (size_t)num_states) ==
          SWIFTRL_OK);
    for (int32_t s = 0; s < num_states; ++s)
        CHECK(actions[s] >= 0 && actions[s] < num_actions);

    const int32_t bad_state = 99;
    int32_t bad_action = 0;
    CHECK(swiftrl_policy_act_batch(policy, &bad_state, &bad_action,
                                   1) == SWIFTRL_ERR_INVALID_ARGUMENT);
    CHECK(swiftrl_policy_act_batch(policy, NULL, NULL, 0) ==
          SWIFTRL_OK); /* empty batch is trivially served */
    swiftrl_policy_free(policy);

    CHECK(strcmp(swiftrl_status_name(SWIFTRL_ERR_IO),
                 "SWIFTRL_ERR_IO") == 0);

    /* The flight recorder has accumulated breadcrumbs from the runs
     * above; its JSON dump must succeed and be non-empty, and an
     * unwritable path must come back as a typed IO error, not a
     * crash. */
    CHECK(swiftrl_dump_flight_record("smoke_flight.json") ==
          SWIFTRL_OK);
    {
        FILE *flight = fopen("smoke_flight.json", "rb");
        CHECK(flight != NULL);
        if (flight != NULL) {
            char header[32] = {0};
            CHECK(fread(header, 1, sizeof(header) - 1, flight) > 0);
            CHECK(strstr(header, "swiftrl-flight-v1") != NULL);
            fclose(flight);
        }
    }
    CHECK(swiftrl_dump_flight_record(
              "no-such-dir/smoke_flight.json") == SWIFTRL_ERR_IO);
    CHECK(strlen(swiftrl_last_error()) > 0);
    remove("smoke_flight.json");

    remove("smoke_full.qt");
    remove("smoke_resumed.qt");
    remove("smoke.ck");

    if (g_failures > 0) {
        fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    printf("all checks passed\n");
    return 0;
}
