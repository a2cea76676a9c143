// Host-speed calibration kernel for the solve benchmark.
//
//   solvebench_calibrate        prints the kernel's time in seconds
//
// The kernel is fixed and shares no code with leq: lookup-or-insert of
// hashed 64-bit keys in a 4 MiB open-addressing table, the access pattern
// of a BDD unique table or computed cache.  run.py times it next to every
// sample, so that a sample taken while other tenants slow the host down can
// be scaled back to the host's reference speed.  Of the kernels tried (see
// README.md), this table size tracked leq's slowdowns best.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

namespace {

std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

}  // namespace

int main() {
    constexpr std::size_t slots = std::size_t{1} << 18;
    constexpr std::size_t mask = slots - 1;
    constexpr std::size_t distinct = slots / 4 * 3;
    constexpr std::size_t ops = 3000000;
    std::vector<std::uint64_t> keys(slots, 0);
    std::vector<std::uint64_t> values(slots, 0);

    const auto start = std::chrono::steady_clock::now();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < ops; ++i) {
        const std::uint64_t key = mix(i % distinct + 1) | 1;
        std::size_t h = mix(key) & mask;
        while (keys[h] != 0 && keys[h] != key) h = (h + 1) & mask;
        if (keys[h] == 0) {
            keys[h] = key;
            values[h] = i;
        } else {
            sum += values[h];
        }
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    // the checksum keeps the loop from being optimised away
    std::printf("%.9f %llu\n", seconds, static_cast<unsigned long long>(sum));
    return 0;
}
