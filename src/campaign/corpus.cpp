#include "campaign/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace minjie::campaign {

namespace fs = std::filesystem;

std::string
CorpusEntry::serialize() const
{
    char buf[96];
    std::string out = "minjie-corpus v2\n";
    std::snprintf(buf, sizeof(buf), "seed 0x%llx\n",
                  static_cast<unsigned long long>(seed));
    out += buf;
    out += "job " + jobKind(plan) + "\n";
    out += "signature " + signature + "\n";
    if (!note.empty())
        out += "note " + note + "\n";
    out += "program\n";
    out += program.serialize();
    return out;
}

bool
CorpusEntry::deserialize(const std::string &text, CorpusEntry &out)
{
    out = CorpusEntry{};
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line))
        return false;
    const bool v1 = line == "minjie-corpus v1";
    if (!v1 && line != "minjie-corpus v2")
        return false;
    bool sawJob = false;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        if (line == "program") {
            std::string rest((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            return sawJob && workload::ShrinkableProgram::deserialize(
                                 rest, out.program);
        }
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        if (tag == "seed") {
            ls >> std::hex >> out.seed;
        } else if (tag == (v1 ? "pair" : "job") && !sawJob) {
            std::string kind, b;
            ls >> kind;
            if (v1) { // "pair A B" is the lockstep job "A-vs-B"
                if (!(ls >> b))
                    return false;
                kind += "-vs-" + b;
            }
            if (!parseJobKind(kind, out.plan))
                return false;
            sawJob = true;
        } else if (tag == "signature") {
            ls >> out.signature;
        } else if (tag == "note") {
            std::getline(ls, out.note);
            if (!out.note.empty() && out.note.front() == ' ')
                out.note.erase(out.note.begin());
        } else {
            return false;
        }
    }
    return false; // never reached the embedded program
}

std::string
CorpusEntry::fileName() const
{
    std::string slug = signature.empty() ? "clean" : signature;
    for (char &c : slug)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "__seed%llx.mjc",
                  static_cast<unsigned long long>(seed));
    return slug + buf;
}

std::string
writeCorpusFile(const std::string &dir, const CorpusEntry &entry)
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    std::string path = (fs::path(dir) / entry.fileName()).string();
    std::ofstream f(path);
    if (!f)
        return "";
    f << entry.serialize();
    return f.good() ? path : "";
}

bool
readCorpusFile(const std::string &path, CorpusEntry &out)
{
    std::ifstream f(path);
    if (!f)
        return false;
    std::stringstream ss;
    ss << f.rdbuf();
    return CorpusEntry::deserialize(ss.str(), out);
}

std::vector<std::string>
listCorpusFiles(const std::string &dir)
{
    std::vector<std::string> out;
    std::error_code ec;
    for (auto it = fs::directory_iterator(dir, ec);
         !ec && it != fs::directory_iterator(); ++it) {
        if (it->path().extension() == ".mjc")
            out.push_back(it->path().string());
    }
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace minjie::campaign
