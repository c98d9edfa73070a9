#include "campaign/cache.hh"

#include <utility>
#include <vector>

#include "campaign/files.hh"
#include "campaign/grid_hash.hh"
#include "campaign/record.hh"

namespace lf {

namespace {

constexpr const char *kMagic = "lfcampaign-cache v1";

} // namespace

ResultCache::ResultCache(std::string root)
    : root_(std::move(root))
{
}

std::string
ResultCache::entryPath(const ExperimentSpec &spec) const
{
    const std::string key = trialKey(spec);
    return root_ + "/" + key.substr(0, 2) + "/" + key + ".rec";
}

bool
ResultCache::lookup(const ExperimentSpec &spec, ExperimentResult &res,
                    std::string &error) const
{
    error.clear();
    if (!enabled())
        return false;
    const std::string path = entryPath(spec);
    if (!pathExists(path))
        return false; // Plain miss.

    std::string text;
    error = readFileText(path, text);
    if (!error.empty())
        return false;

    const auto fail = [&](const std::string &reason) {
        error = path + ": " + reason +
            " — cache entry corrupt (delete it to re-run the trial)";
        return false;
    };

    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            return fail("truncated entry (unterminated line)");
        lines.push_back(text.substr(start, end - start));
        start = end + 1;
    }
    if (lines.size() != 4 || lines[3] != "end")
        return fail("truncated entry (missing \"end\" sentinel)");
    if (lines[0] != kMagic)
        return fail("not a " + std::string(kMagic) + " entry");

    const std::string key = trialKey(spec);
    if (lines[1] != "key " + key) {
        return fail("key line mismatch (want \"key " + key + "\")");
    }
    if (lines[2].compare(0, 4, "row ") != 0)
        return fail("expected a \"row\" line");
    std::size_t index = 0;
    const std::string bad =
        decodeResultRecord(lines[2].substr(4), index, res);
    if (!bad.empty())
        return fail(bad);
    // Content-address check: the stored spec must be *this* trial,
    // byte for byte — a record that decodes but describes another
    // trial (bit rot, a misfiled entry) must not be served.
    if (canonicalTrialText(res.spec) != canonicalTrialText(spec))
        return fail("stored spec does not match the requested trial");
    return true;
}

std::string
ResultCache::store(const ExperimentSpec &spec,
                   const ExperimentResult &res) const
{
    if (!enabled())
        return "";
    // The record's index slot is campaign-relative, not content; it
    // is stored as 0 and re-stamped by whoever replays the entry.
    std::string content = std::string(kMagic) + "\n";
    content += "key " + trialKey(spec) + "\n";
    content += "row " + encodeResultRecord(0, res) + "\n";
    content += "end\n";
    return writeFileAtomic(entryPath(spec), content);
}

} // namespace lf
