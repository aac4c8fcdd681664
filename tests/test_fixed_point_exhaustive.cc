/**
 * @file
 * The proof behind common::kReciprocalDescaleScales: for every proven
 * scale, the reciprocal descale gives the bits of the division for all
 * 2^32 int32 raw values. About 10 s per scale in a Release build;
 * labelled `exhaustive` so a sanitizer job can leave it out.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

#include "common/fixed_point.hh"

namespace {

using swiftrl::common::kReciprocalDescaleScales;
using swiftrl::common::withDescaleToFloat;

TEST(DescaleExhaustive, EveryInt32MatchesTheDivision)
{
    for (const std::int32_t scale : kReciprocalDescaleScales) {
        SCOPED_TRACE(scale);
        const double divisor = static_cast<double>(scale);
        withDescaleToFloat(scale, [&](auto descale) {
            std::uint64_t mismatches = 0;
            std::int64_t first = 0;
            // One 2^16-value run at a time keeps the inner loop free
            // of the mismatch bookkeeping, so it vectorises.
            constexpr std::int64_t kRun = 1 << 16;
            for (std::int64_t base = std::numeric_limits<std::int32_t>::min();
                 base <= std::numeric_limits<std::int32_t>::max();
                 base += kRun) {
                std::uint32_t run = 0;
                for (std::int64_t k = 0; k < kRun; ++k) {
                    const auto raw = static_cast<std::int32_t>(base + k);
                    const float want = static_cast<float>(
                        static_cast<double>(raw) / divisor);
                    run += std::bit_cast<std::uint32_t>(descale(raw)) !=
                           std::bit_cast<std::uint32_t>(want);
                }
                if (run > 0 && mismatches == 0) {
                    for (std::int64_t k = 0; k < kRun; ++k) {
                        const auto raw =
                            static_cast<std::int32_t>(base + k);
                        if (descale(raw) !=
                            static_cast<float>(
                                static_cast<double>(raw) / divisor)) {
                            first = raw;
                            break;
                        }
                    }
                }
                mismatches += run;
            }
            EXPECT_EQ(mismatches, 0u) << "first mismatch at raw " << first;
        });
    }
}

} // namespace
