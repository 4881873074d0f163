// MJ-PRB2 fixture, bad helper TU: loaded under src/util/, outside the
// MJ-PRB2 scope. The raw x[] store bypasses the
// ArchState/CsrFile choke point (and its DiffTest probes) yet is
// reachable from engine code.

namespace minjie::util {

void
patchRegs(State &st)
{
    st.x[5] = 0; // MJ-PRB2-001 via nemu::applyPatch
}

} // namespace minjie::util
