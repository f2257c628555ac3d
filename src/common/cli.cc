#include "common/cli.h"

#include <algorithm>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

namespace {

std::vector<FlagSpec>
withEmptyHelp(const std::vector<std::string> &known)
{
    std::vector<FlagSpec> flags;
    flags.reserve(known.size());
    for (const auto &name : known)
        flags.push_back({name, ""});
    return flags;
}

} // namespace

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<FlagSpec> &flags)
    : flags_(flags)
{
    auto is_known = [&](const std::string &key) {
        return std::find_if(flags_.begin(), flags_.end(),
                            [&](const FlagSpec &f) {
                                return f.name == key;
                            }) != flags_.end();
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string key = arg.substr(2);
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
            value = argv[++i];
        }
        if (!is_known(key)) {
            std::string hint;
            for (const auto &f : flags_)
                hint += " --" + f.name;
            fatal("unknown flag '--", key, "'; accepted flags:", hint);
        }
        values_[key] = value;
    }
}

CliArgs::CliArgs(int argc, const char *const *argv,
                 const std::vector<std::string> &known)
    : CliArgs(argc, argv, withEmptyHelp(known))
{
}

std::string
CliArgs::helpText(const std::string &tool,
                  const std::string &summary) const
{
    std::size_t width = 0;
    for (const auto &f : flags_)
        width = std::max(width, f.name.size());

    std::string out = "usage: " + tool + " [--flag[=value] ...]\n  " +
                      summary + "\n\nflags:\n";
    for (const auto &f : flags_) {
        out += "  --" + f.name;
        out.append(width - f.name.size() + 2, ' ');
        out += f.help + "\n";
    }
    return out;
}

bool
CliArgs::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
CliArgs::getString(const std::string &key, const std::string &def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::uint64_t
CliArgs::getU64(const std::string &key, std::uint64_t def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : parseU64(it->second);
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    const auto it = values_.find(key);
    return it == values_.end() ? def : parseDouble(it->second);
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return def;
    if (it->second.empty() || it->second == "true" ||
        it->second == "1" || it->second == "on")
        return true;
    if (it->second == "false" || it->second == "0" ||
        it->second == "off")
        return false;
    fatal("flag '--", key, "' expects a boolean, got '", it->second,
          "'");
}

std::size_t
CliArgs::getThreads(std::uint64_t def) const
{
    const std::uint64_t requested = getU64("threads", def);
    return requested == 0 ? hardwareThreads()
                          : static_cast<std::size_t>(requested);
}

std::string
CliArgs::applyKernels() const
{
    if (has("kernels")) {
        const std::string value = getString("kernels", "auto");
        KernelBackend backend = KernelBackend::Auto;
        if (!parseKernelBackend(value, backend))
            fatal("flag '--kernels' expects scalar|avx2|avx512|auto, "
                  "got '", value, "'");
        setKernelBackend(backend);
    }
    return kernelBackendName(activeKernelBackend());
}

std::vector<FlagSpec>
withTierFlags(std::vector<FlagSpec> flags)
{
    flags.push_back(
        {"hot-mb", "out-of-core: DRAM hot-tier budget in megabytes "
                   "for the embedding tables (with --cold-path)"});
    flags.push_back(
        {"cold-path", "out-of-core: directory for the file-backed "
                      "cold tier; presence enables tiered tables "
                      "(bit-identical model to all-DRAM)"});
    flags.push_back(
        {"prefetch", "on|off: lookahead-driven async warming of the "
                     "next iteration's rows (tiered tables only; "
                     "never changes the model)"});
    return flags;
}

} // namespace lazydp
