/**
 * @file
 * Prints the 64-bit FNV-1a digest of each file named on the command
 * line, one 16-digit hex value per line. The golden tests digest eqsim's
 * export JSON and binary trace with it (tests/golden_test.cmake).
 *
 * Usage: golden_digest <file>...
 */

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <iterator>
#include <vector>

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: golden_digest <file>...\n";
        return 2;
    }
    for (int i = 1; i < argc; ++i) {
        std::ifstream in(argv[i], std::ios::binary);
        if (!in) {
            std::cerr << "golden_digest: cannot read " << argv[i] << '\n';
            return 1;
        }
        const std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()};
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (const char c : bytes) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ULL;
        }
        std::printf("%016llx\n", static_cast<unsigned long long>(h));
    }
    return 0;
}
