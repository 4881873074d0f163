// MJ-DET2 fixture, declaration TU: loaded under src/util/ (outside
// the MJ-DET2 scope; a declaration alone is never a finding). The
// unordered member is what makes iteration in det2_rows_use.cpp
// host-order-dependent — only the merged program model can connect
// the two TUs.

namespace minjie::util {

struct RowTable
{
    std::unordered_map<int, int> rowsById;
};

} // namespace minjie::util
