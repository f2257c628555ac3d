/**
 * @file
 * Minimal command-line flag parser for the tools and examples.
 *
 * Supports `--key=value` and `--key value` forms plus `--flag`
 * booleans; unknown flags are fatal (typos should not silently pick
 * defaults in an experiment driver).
 */

#ifndef LAZYDP_COMMON_CLI_H
#define LAZYDP_COMMON_CLI_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lazydp {

/**
 * One accepted flag: name plus the help line the generated --help
 * listing prints for it.
 */
struct FlagSpec
{
    std::string name; //!< flag name without the leading "--"
    std::string help; //!< one-line description (may name values/units)
};

/**
 * Append the shared out-of-core flag triplet (--hot-mb, --cold-path,
 * --prefetch) to a tool's flag list, so every driver documents the
 * tiered-table knobs with identical wording. Parsing stays with the
 * caller (the values feed nn/dlrm.h's TieredModelOptions).
 */
std::vector<FlagSpec> withTierFlags(std::vector<FlagSpec> flags);

/** Parsed command line with typed, defaulted accessors. */
class CliArgs
{
  public:
    /**
     * Primary constructor: accepted flags WITH help text, enabling the
     * generated helpText() listing. Unknown flags are fatal with the
     * accepted-flag list in the message (typos must not silently pick
     * defaults in an experiment driver).
     *
     * @param argc / @p argv main()'s arguments
     * @param flags the accepted flags and their help lines
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<FlagSpec> &flags);

    /**
     * Convenience constructor for callers without help text (benches,
     * tests): every flag gets an empty help line.
     *
     * @param argc / @p argv main()'s arguments
     * @param known the set of accepted flag names (without "--")
     */
    CliArgs(int argc, const char *const *argv,
            const std::vector<std::string> &known);

    /**
     * Generated --help listing: usage line, @p summary, then one
     * aligned "--name  help" row per accepted flag in declaration
     * order.
     *
     * @param tool program name for the usage line
     * @param summary one-line description of the tool
     */
    std::string helpText(const std::string &tool,
                         const std::string &summary) const;

    /** @return true if the flag was given (with or without a value). */
    bool has(const std::string &key) const;

    /** @return string value or @p def. */
    std::string getString(const std::string &key,
                          const std::string &def) const;

    /** @return unsigned integer value or @p def; fatal on garbage. */
    std::uint64_t getU64(const std::string &key, std::uint64_t def) const;

    /** @return double value or @p def; fatal on garbage. */
    double getDouble(const std::string &key, double def) const;

    /** @return boolean: present without value, "=true"/"=1"/"=on". */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Shared `--threads` handling for every tool and bench: reads the
     * "threads" flag (@p def when absent) and resolves 0 to the
     * hardware thread count. Fatal on 0 results or garbage.
     */
    std::size_t getThreads(std::uint64_t def = 1) const;

    /**
     * Shared `--kernels=scalar|avx2|avx512|auto` handling: selects the
     * process-wide SIMD kernel backend (kernels/kernel_registry.h).
     * When the flag is absent the startup selection (LAZYDP_KERNELS
     * environment variable, else auto) stands. Fatal on garbage.
     *
     * @return the name of the backend now active
     *         ("scalar"/"avx2"/"avx512")
     */
    std::string applyKernels() const;

    /** @return positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::vector<FlagSpec> flags_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace lazydp

#endif // LAZYDP_COMMON_CLI_H
