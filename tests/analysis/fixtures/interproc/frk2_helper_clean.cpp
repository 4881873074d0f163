// MJ-FRK2 fixture, clean helper TU: same shape as frk2_helper_bad.cpp
// but stderr-directed. stderr is unbuffered, so reaching it from the
// fork path is fine — the graph rule must tolerate it.

namespace minjie::util {

void
emitProgress(int n)
{
    fprintf(stderr, "replayed %d cycles\n", n); // clean: unbuffered
}

} // namespace minjie::util
