// MJ-DET2 fixture, bad helper TU: loaded under src/util/, outside the
// MJ-DET2 scope. The host-RNG call is not on a deterministic path by
// location, yet poisons every deterministic caller.

namespace minjie::util {

int
hashSeed(int iteration)
{
    return static_cast<int>(rand()) ^ iteration; // MJ-DET2-001
}

} // namespace minjie::util
