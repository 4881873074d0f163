// MJ-FRK2 fixture, bad helper TU: loaded under src/util/, outside the
// MJ-FRK2 scope, so only the call graph can see that printf's
// user-space buffering is reachable from the LightSSS fork path.

namespace minjie::util {

void
emitProgress(int n)
{
    printf("replayed %d cycles\n", n); // MJ-FRK2-001 via replayWindow
}

} // namespace minjie::util
