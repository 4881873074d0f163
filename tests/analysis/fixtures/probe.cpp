// Seeded MJ-PRB2-001 violations: direct architectural-state stores that
// bypass the ArchState / CsrFile accessors (the DiffTest probe choke
// points). Fixture data only — never compiled; see fixtures/
// determinism.cpp for the scheme.

void
fixture_probe(iss::ArchState &st, const DecodedInst &di, uint64_t v)
{
    st.x[di.rd] = v;            // MJ-PRB2-001
    st.f[di.rd] |= v;           // MJ-PRB2-001
    st.csr.mstatus = v;         // MJ-PRB2-001
    st.setX(di.rd, v);          // accessor: clean
    uint64_t r = st.x[di.rd];   // read: clean
    (void)r;
}
