// MJ-DET2 fixture, iteration TU: loaded under src/campaign/. This TU
// never mentions "unordered"; the container is declared
// std::unordered_map in det2_rows_decl.cpp (another TU).

namespace minjie::campaign {

int
sumRows(util::RowTable &t)
{
    int sum = 0;
    for (const auto &kv : t.rowsById) // MJ-DET2-001: cross-TU unordered
        sum += kv.second;
    return sum;
}

} // namespace minjie::campaign
