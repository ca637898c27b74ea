/**
 * @file
 * Golden-file comparison shared by the pinned-metric tests. The
 * simulator is deterministic, so a snapshot that differs from its
 * golden file is a behavioral change that must be reviewed and, if
 * intended, blessed by rerunning the test with DRAMLESS_UPDATE_GOLDEN
 * set, which rewrites the file instead of comparing.
 */

#ifndef DRAMLESS_TESTS_GOLDEN_FILE_HH
#define DRAMLESS_TESTS_GOLDEN_FILE_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dramless
{

/**
 * Compare @p snapshot with the golden file at @p path and fail at the
 * first differing line, or rewrite the file (and skip) when
 * DRAMLESS_UPDATE_GOLDEN is set.
 */
inline void
expectMatchesGolden(const std::string &path,
                    const std::string &snapshot)
{
    if (std::getenv("DRAMLESS_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write golden file " << path;
        out << snapshot;
        out.close();
        GTEST_SKIP() << "golden file regenerated: " << path;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good())
        << "missing golden file " << path
        << " — regenerate with DRAMLESS_UPDATE_GOLDEN=1";
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string golden = buf.str();

    if (snapshot == golden)
        return;

    // Report the first differing line for a readable failure.
    std::istringstream a(golden), b(snapshot);
    std::string la, lb;
    std::size_t lineno = 0;
    while (true) {
        bool ga = bool(std::getline(a, la));
        bool gb = bool(std::getline(b, lb));
        ++lineno;
        if (!ga && !gb)
            break;
        if (!ga || !gb || la != lb) {
            FAIL() << "golden mismatch in " << path << " at line "
                   << lineno << "\n  golden:  " << (ga ? la : "<eof>")
                   << "\n  current: " << (gb ? lb : "<eof>")
                   << "\nIf this change is intended, regenerate with "
                      "DRAMLESS_UPDATE_GOLDEN=1";
        }
    }
    FAIL() << "snapshot differs from golden file " << path;
}

} // namespace dramless

#endif // DRAMLESS_TESTS_GOLDEN_FILE_HH
