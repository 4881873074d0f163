#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "difftest/csr_rules.h"
#include "workload/programs.h"

namespace {

using namespace minjie;
using namespace minjie::difftest;

TEST(CsrRules, AtLeast120Rules)
{
    // The paper devises "at least 120 rules" over the machine CSRs
    // (Section III-B2); the fflags/frm/priv checks in checkCsrs() add
    // seven more on top of the table.
    EXPECT_GE(csrRules().size() + 7, 120u);
}

TEST(CsrRules, CleanStatesPass)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    std::vector<std::string> violations;
    EXPECT_TRUE(checkCsrs(dut, ref, priv, violations));
    EXPECT_TRUE(violations.empty());
}

TEST(CsrRules, ExactFieldMismatchDetected)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.mepc = 0x1234;
    std::vector<std::string> violations;
    EXPECT_FALSE(checkCsrs(dut, ref, priv, violations));
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations.front().find("mepc"), std::string::npos);
}

TEST(CsrRules, FieldGranularity)
{
    // Only the offending mstatus field is named, not the whole CSR.
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.mstatus ^= isa::MSTATUS_SUM;
    std::vector<std::string> violations;
    EXPECT_FALSE(checkCsrs(dut, ref, priv, violations));
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations.front().find("SUM"), std::string::npos);
}

TEST(CsrRules, TrustDutFieldsAdopted)
{
    // mcycle is timing-dependent: the REF adopts the DUT's value
    // instead of flagging a mismatch.
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.mcycle = 987654;
    std::vector<std::string> violations;
    EXPECT_TRUE(checkCsrs(dut, ref, priv, violations));
    EXPECT_EQ(ref.mcycle, 987654u);
}

TEST(CsrRules, MipPendingBitsTrusted)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.mip |= isa::MIP_MTIP | isa::MIP_MEIP; // device-driven bits
    std::vector<std::string> violations;
    EXPECT_TRUE(checkCsrs(dut, ref, priv, violations));
    EXPECT_TRUE(ref.mip & isa::MIP_MTIP);
}

TEST(CsrRules, IgnoredFieldsNeverFire)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.pmpcfg0 = ~0ULL; // Ignore policy
    std::vector<std::string> violations;
    EXPECT_TRUE(checkCsrs(dut, ref, priv, violations));
}

TEST(CsrRules, FflagsPerFlagRules)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.fflags = 0x10; // NV set on DUT only
    std::vector<std::string> violations;
    EXPECT_FALSE(checkCsrs(dut, ref, priv, violations));
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations.front().find("NV"), std::string::npos);
}

TEST(CsrRules, PrivilegeLevelChecked)
{
    iss::CsrFile ref;
    isa::Priv priv = isa::Priv::M;
    CsrProbe dut = snapshotCsrs(ref, priv);
    dut.priv = 1; // S
    std::vector<std::string> violations;
    EXPECT_FALSE(checkCsrs(dut, ref, priv, violations));
    EXPECT_NE(violations.front().find("priv"), std::string::npos);
}

TEST(CsrRules, EveryRuleHasDistinctIdentity)
{
    std::set<std::string> names;
    for (const auto &r : csrRules()) {
        std::string id = std::string(r.csr) + "." + r.field;
        EXPECT_TRUE(names.insert(id).second) << "duplicate rule " << id;
    }
}

/** The trigger DiffTest used to compute by decoding every commit. */
bool
decodedTrigger(uint32_t inst)
{
    isa::Op op = isa::decode(inst).op;
    return isa::isCsr(op) || isa::isSystem(op);
}

TEST(CsrRules, TriggerMatchesDecodeOnEveryWord)
{
    // Every 16-bit word (compressed or the low half of a 32-bit one).
    for (uint32_t w = 0; w <= 0xffff; ++w)
        ASSERT_EQ(triggersCsrCheck(w), decodedTrigger(w)) << std::hex << w;

    // Every halfword-aligned word of the 25 SPEC proxies' code, so
    // each instruction and each straddling misparse is covered.
    size_t words = 0, triggers = 0;
    for (const auto *suite : {&workload::specIntSuite(),
                              &workload::specFpSuite()}) {
        for (const auto &spec : *suite) {
            auto prog = workload::buildProxy(spec, 10);
            for (const auto &seg : prog.segments) {
                if (prog.entry < seg.base ||
                    prog.entry >= seg.base + seg.bytes.size())
                    continue; // data
                for (size_t i = 0; i + 4 <= seg.bytes.size(); i += 2) {
                    uint32_t w;
                    std::memcpy(&w, seg.bytes.data() + i, sizeof(w));
                    ASSERT_EQ(triggersCsrCheck(w), decodedTrigger(w))
                        << spec.name << std::hex << " word " << w;
                    ++words;
                    triggers += triggersCsrCheck(w);
                }
            }
        }
    }
    EXPECT_GT(words, 10'000u);
    EXPECT_GT(triggers, 0u);

    // Random words, and random words forced into the SYSTEM opcode.
    Rng rng(0xc5c);
    for (int i = 0; i < 200'000; ++i) {
        auto w = static_cast<uint32_t>(rng.next());
        ASSERT_EQ(triggersCsrCheck(w), decodedTrigger(w)) << std::hex << w;
        w = (w & ~0x7fu) | 0x73;
        ASSERT_EQ(triggersCsrCheck(w), decodedTrigger(w)) << std::hex << w;
    }
}

} // namespace
