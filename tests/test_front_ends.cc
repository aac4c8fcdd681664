/**
 * @file
 * The three front ends over one run spec. The CLI (run as a
 * subprocess), the C ABI (its implementation is compiled into this
 * test, so one copy of the library serves both sides) and a one-job
 * fleet must train byte-identical Q-tables from the same spec; each
 * front end accepts exactly its own keys; and the key lists in
 * capi/swiftrl.h and docs/SCHEDULER.md match the table, defaults
 * included.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "capi/swiftrl.h"
#include "fleet/job_spec.hh"
#include "fleet/scheduler.hh"
#include "rlcore/serialization.hh"
#include "swiftrl/run_spec.hh"

namespace {

using swiftrl::FrontEnd;
using Keys = std::vector<std::string_view>;

/** One spec as (key, JSON literal) pairs. */
using Spec = std::vector<std::pair<std::string, std::string>>;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    return {std::istreambuf_iterator<char>(in), {}};
}

/** Read a scratch file and delete it. */
std::string
takeFile(const std::string &path)
{
    std::string bytes = readFile(path);
    std::remove(path.c_str());
    return bytes;
}

/** A scratch file of this process (test trees may run side by side). */
std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "front_ends_" +
           std::to_string(::getpid()) + "_" + name;
}

std::string
jsonMembers(const Spec &spec)
{
    std::string out;
    for (const auto &[key, literal] : spec)
        out += (out.empty() ? "\"" : ", \"") + key + "\": " + literal;
    return out;
}

/** Run the CLI with @p args; its exit status, output in @p log. */
int
runCli(const std::string &args, const std::string &log)
{
    const std::string cmd = std::string(SWIFTRL_CLI_PATH) + " " + args +
                            " > " + log + " 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string
cliQTable(const Spec &spec, std::size_t cores, const std::string &name)
{
    std::string args = "--cores " + std::to_string(cores) +
                       " --eval-episodes 1";
    for (const auto &[key, literal] : spec) {
        std::string value = literal;
        value.erase(std::remove(value.begin(), value.end(), '"'),
                    value.end());
        args += " --" + swiftrl::flagName(key) + " " + value;
    }
    const std::string path = tempPath(name + "_cli.q");
    args += " --save-qtable " + path;
    const std::string log = tempPath(name + "_cli.log");
    const int status = runCli(args, log);
    const std::string output = takeFile(log);
    EXPECT_EQ(status, 0) << args << "\n" << output;
    return takeFile(path);
}

std::string
capiQTable(const Spec &spec, std::size_t cores, const std::string &name)
{
    const std::string params = "{\"cores\": " + std::to_string(cores) +
                               ", " + jsonMembers(spec) + "}";
    swiftrl_session *session = nullptr;
    EXPECT_EQ(swiftrl_session_create(params.c_str(), &session),
              SWIFTRL_OK)
        << swiftrl_last_error();
    if (session == nullptr)
        return {};
    int remaining = 1;
    while (remaining > 0) {
        EXPECT_EQ(swiftrl_session_step(session, &remaining), SWIFTRL_OK);
    }
    const std::string path = tempPath(name + "_capi.q");
    EXPECT_EQ(swiftrl_session_finish(session, path.c_str()), SWIFTRL_OK)
        << swiftrl_last_error();
    swiftrl_session_free(session);
    return takeFile(path);
}

std::string
fleetQTable(const Spec &spec, std::size_t ranks,
            std::size_t dpus_per_rank, const std::string &name)
{
    const std::string doc =
        "{\"fleet\": {\"ranks\": " + std::to_string(ranks) +
        ", \"dpus_per_rank\": " + std::to_string(dpus_per_rank) +
        ", \"quantum_rounds\": 1}, \"jobs\": [{\"id\": \"j\", "
        "\"tenant\": \"t\", \"ranks\": " +
        std::to_string(ranks) + ", " + jsonMembers(spec) + "}]}";
    const auto fleet_spec = swiftrl::fleet::parseFleetSpec(doc);
    swiftrl::fleet::FleetScheduler scheduler(fleet_spec.config);
    const auto result = scheduler.run(fleet_spec.jobs);
    EXPECT_EQ(result.jobs.size(), 1u);
    if (result.jobs.empty())
        return {};
    const std::string path = tempPath(name + "_fleet.q");
    swiftrl::rlcore::saveQTable(result.jobs[0].finalQ, path);
    return takeFile(path);
}

struct SpecCase
{
    const char *name;
    Spec spec;
    std::size_t ranks;
    std::size_t dpusPerRank;
};

void
PrintTo(const SpecCase &c, std::ostream *out)
{
    *out << c.name;
}

class OneSpecThreeWays : public ::testing::TestWithParam<SpecCase>
{
};

TEST_P(OneSpecThreeWays, ByteIdenticalQTables)
{
    const SpecCase &c = GetParam();
    const std::size_t cores = c.ranks * c.dpusPerRank;
    const std::string cli = cliQTable(c.spec, cores, c.name);
    const std::string capi = capiQTable(c.spec, cores, c.name);
    const std::string fleet =
        fleetQTable(c.spec, c.ranks, c.dpusPerRank, c.name);
    ASSERT_FALSE(cli.empty());
    EXPECT_TRUE(cli == capi) << "the C ABI trained a different table";
    EXPECT_TRUE(cli == fleet) << "the fleet trained a different table";
}

INSTANTIATE_TEST_SUITE_P(
    Specs, OneSpecThreeWays,
    ::testing::Values(
        SpecCase{"lake",
                 {{"env", "\"frozenlake\""},
                  {"transitions", "2048"},
                  {"episodes", "60"},
                  {"tau", "20"},
                  {"format", "\"int32\""},
                  {"seed", "1"}},
                 1,
                 4},
        // tau above the budget is clamped the same way everywhere.
        SpecCase{"taxi",
                 {{"env", "\"taxi\""},
                  {"transitions", "3000"},
                  {"episodes", "12"},
                  {"tau", "50"},
                  {"algo", "\"sarsa\""},
                  {"sampling", "\"ran\""},
                  {"format", "\"fp32\""},
                  {"alpha", "0.2"},
                  {"gamma", "0.9"},
                  {"epsilon", "0.1"},
                  {"tasklets", "2"},
                  {"seed", "9"}},
                 2,
                 2},
        // Every key at its default but the size of the run.
        SpecCase{"defaults",
                 {{"transitions", "1024"}, {"episodes", "4"}},
                 1,
                 2}),
    [](const auto &p) { return std::string(p.param.name); });

// --- each front end's key set --------------------------------------

TEST(FrontEndKeys, SnapshotOfEachKeySet)
{
    EXPECT_EQ(swiftrl::runSpecKeys(FrontEnd::Cli),
              (Keys{"env", "cores", "host_threads", "transitions", "seed",
                    "algo", "sampling", "format", "alpha", "gamma",
                    "epsilon", "episodes", "tau", "tasklets", "weighted",
                    "shards"}));
    EXPECT_EQ(swiftrl::runSpecKeys(FrontEnd::CApi),
              (Keys{"env", "cores", "host_threads", "transitions", "seed",
                    "algo", "sampling", "format", "alpha", "gamma",
                    "epsilon", "episodes", "stride", "tau",
                    "block_transitions", "tasklets", "weighted",
                    "epsilon_decay", "shards"}));
    EXPECT_EQ(swiftrl::runSpecKeys(FrontEnd::Fleet),
              (Keys{"env", "transitions", "seed", "algo", "sampling",
                    "format", "alpha", "gamma", "epsilon", "episodes",
                    "tau", "tasklets"}));
}

TEST(FrontEndKeys, CApiKnowsEveryTableKeyAndNoOther)
{
    swiftrl_session *session = nullptr;
    for (const auto key : swiftrl::runSpecKeys(FrontEnd::CApi)) {
        // An array is the wrong type for every key: the reader, not
        // the unknown-key check, must refuse it.
        const std::string params = "{\"" + std::string(key) + "\": []}";
        EXPECT_EQ(swiftrl_session_create(params.c_str(), &session),
                  SWIFTRL_ERR_PARSE);
        EXPECT_EQ(std::string(swiftrl_last_error()).find("unknown key"),
                  std::string::npos)
            << key << ": " << swiftrl_last_error();
    }
    EXPECT_EQ(swiftrl_session_create("{\"collect_seed\": 1}", &session),
              SWIFTRL_ERR_PARSE);
    EXPECT_NE(std::string(swiftrl_last_error()).find("unknown key"),
              std::string::npos);
    EXPECT_EQ(session, nullptr);
}

TEST(FrontEndKeys, CApiBoundsHostThreadsBeforeBuildingAMachine)
{
    swiftrl_session *session = nullptr;
    EXPECT_EQ(swiftrl_session_create(
                  R"({"cores": 5000, "host_threads": 5000})", &session),
              SWIFTRL_ERR_PARSE);
    EXPECT_EQ(std::string(swiftrl_last_error()),
              "params_json: host_threads must be an integer in [0, "
              "1024]");
    EXPECT_EQ(session, nullptr);
}

TEST(FrontEndKeys, FleetAcceptsItsTrainingAndJobKeys)
{
    const auto spec = swiftrl::fleet::parseFleetSpec(R"({
      "fleet": {"ranks": 2, "dpus_per_rank": 2},
      "jobs": [{"id": "a", "tenant": "t", "priority": 1,
                "arrival_sec": 0.5, "ranks": 2, "min_ranks": 1,
                "env": "taxi", "transitions": 500, "seed": 4,
                "algo": "sarsa", "sampling": "str", "format": "int8",
                "alpha": 0.2, "gamma": 0.9, "epsilon": 0.1,
                "episodes": 7, "tau": 3, "tasklets": 2}]})");
    ASSERT_EQ(spec.jobs.size(), 1u);
    const auto &job = spec.jobs[0];
    EXPECT_EQ(job.env, "taxi");
    EXPECT_EQ(job.transitions, 500u);
    EXPECT_EQ(job.collectSeed, 4u);
    EXPECT_EQ(job.hyper.seed, 45u);
    EXPECT_EQ(job.workload.format, swiftrl::rlcore::NumericFormat::Int8);
    EXPECT_EQ(job.hyper.episodes, 7);
    EXPECT_EQ(job.tau, 3);
    EXPECT_EQ(job.tasklets, 2u);
}

TEST(FrontEndKeysDeath, FleetRejectsTableKeysOutsideItsList)
{
    const Keys fleet = swiftrl::runSpecKeys(FrontEnd::Fleet);
    for (const auto key : swiftrl::runSpecKeys(FrontEnd::CApi)) {
        if (std::find(fleet.begin(), fleet.end(), key) != fleet.end())
            continue;
        const std::string doc =
            R"({"jobs": [{"id": "a", "tenant": "t", ")" +
            std::string(key) + R"(": 1}]})";
        EXPECT_DEATH(swiftrl::fleet::parseFleetSpec(doc), "unknown key")
            << key;
    }
}

TEST(FrontEndKeys, CliAcceptsItsFlagsAndNoOther)
{
    // All 16 training flags at once.
    const std::string all_log = tempPath("all_flags.log");
    const int status =
        runCli("--env frozenlake --cores 2 --host-threads 1 "
               "--transitions 256 --seed 3 --algo sarsa --sampling ran "
               "--format fp32 --alpha 0.2 --gamma 0.9 --epsilon 0.1 "
               "--episodes 2 --tau 1 --tasklets 1 --weighted --shards 0 "
               "--eval-episodes 1",
               all_log);
    EXPECT_EQ(status, 0) << takeFile(all_log);
    std::remove(all_log.c_str());
    const Keys cli = swiftrl::runSpecKeys(FrontEnd::Cli);
    std::vector<std::string> others = {"collect-seed"};
    for (const auto key : swiftrl::runSpecKeys(FrontEnd::CApi)) {
        if (std::find(cli.begin(), cli.end(), key) == cli.end())
            others.push_back(swiftrl::flagName(key));
    }
    EXPECT_EQ(others.size(), 4u);
    for (const auto &flag : others) {
        const std::string log = tempPath("unknown_flag.log");
        EXPECT_EQ(runCli("--" + flag + " 1", log), 1) << flag;
        EXPECT_NE(takeFile(log).find("unknown flag --" + flag),
                  std::string::npos)
            << flag;
    }
}

// --- docs drift ----------------------------------------------------

TEST(FrontEndDocs, CapiHeaderListsEveryKeyWithItsDefault)
{
    const std::string header =
        readFile(std::string(SWIFTRL_SOURCE_DIR) + "/capi/swiftrl.h");
    const auto begin = header.find("Training params_json keys");
    ASSERT_NE(begin, std::string::npos);
    const auto end = header.find("\n *\n", begin);
    std::istringstream block(header.substr(begin, end - begin));

    // Entries start with ` *   "key"`; continuation lines are
    // indented further.
    const std::string entry_start = " *   \"";
    std::vector<std::pair<std::string, std::string>> entries;
    for (std::string line; std::getline(block, line);) {
        if (line.rfind(entry_start, 0) == 0) {
            const auto key_end = line.find('"', entry_start.size());
            entries.emplace_back(line.substr(entry_start.size(),
                                             key_end - entry_start.size()),
                                 line);
        } else if (!entries.empty()) {
            entries.back().second += line;
        }
    }

    const Keys keys = swiftrl::runSpecKeys(FrontEnd::CApi);
    EXPECT_EQ(entries.size(), keys.size());
    for (const auto &[key, text] : entries) {
        EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end())
            << "swiftrl.h documents \"" << key
            << "\", which is not a table key";
    }
    for (const auto &row : swiftrl::runParams()) {
        const auto it = std::find_if(
            entries.begin(), entries.end(),
            [&](const auto &e) { return e.first == row.name; });
        ASSERT_NE(it, entries.end())
            << "swiftrl.h does not document \"" << row.name << "\"";
        const std::string shown =
            "(default " + std::string(row.defaultJson) + ")";
        EXPECT_NE(it->second.find(shown), std::string::npos)
            << row.name << ": " << it->second;
    }
}

TEST(FrontEndDocs, SchedulerDocListsEveryJobKeyWithItsDefault)
{
    const std::string doc =
        readFile(std::string(SWIFTRL_SOURCE_DIR) + "/docs/SCHEDULER.md");
    const auto begin = doc.find("### `jobs`");
    ASSERT_NE(begin, std::string::npos);
    const auto end = doc.find("\n\n", doc.find("| Key |", begin));
    std::istringstream table(doc.substr(begin, end - begin));

    // Rows read "| `key` | default | meaning |".
    std::vector<std::pair<std::string, std::string>> rows;
    for (std::string line; std::getline(table, line);) {
        if (line.rfind("| `", 0) != 0)
            continue;
        const auto key_end = line.find('`', 3);
        const auto cell_end = line.find(" |", key_end + 4);
        std::string cell = line.substr(key_end + 4, cell_end - key_end - 4);
        cell.erase(std::remove(cell.begin(), cell.end(), '`'), cell.end());
        rows.emplace_back(line.substr(3, key_end - 3), cell);
    }

    const Keys job_keys = {"id",          "tenant", "priority",
                           "arrival_sec", "ranks",  "min_ranks"};
    const Keys fleet = swiftrl::runSpecKeys(FrontEnd::Fleet);
    EXPECT_EQ(rows.size(), job_keys.size() + fleet.size());
    for (const auto &[key, cell] : rows) {
        if (std::find(job_keys.begin(), job_keys.end(), key) !=
            job_keys.end())
            continue;
        EXPECT_NE(std::find(fleet.begin(), fleet.end(), key), fleet.end())
            << "SCHEDULER.md documents `" << key
            << "`, which the fleet does not accept";
    }
    for (const auto &row : swiftrl::runParams()) {
        if (std::find(fleet.begin(), fleet.end(), row.name) == fleet.end())
            continue;
        const auto it = std::find_if(
            rows.begin(), rows.end(),
            [&](const auto &r) { return r.first == row.name; });
        ASSERT_NE(it, rows.end())
            << "SCHEDULER.md does not document `" << row.name << "`";
        EXPECT_EQ(it->second, row.defaultJson) << row.name;
    }
}

} // namespace
