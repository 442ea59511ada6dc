#include "support/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace amsvp::support {

namespace {

bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

std::string_view trim(std::string_view text) {
    std::size_t begin = 0;
    while (begin < text.size() && is_space(text[begin])) {
        ++begin;
    }
    std::size_t end = text.size();
    while (end > begin && is_space(text[end - 1])) {
        --end;
    }
    return text.substr(begin, end - begin);
}

std::vector<std::string_view> split(std::string_view text, char separator) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == separator) {
            out.push_back(text.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& c : out) {
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    return out;
}

std::string format_double(double value) {
    // Among all %g renderings that parse back to the same value, pick the
    // shortest (earliest precision wins ties); this keeps generated code
    // readable: 100 instead of 1e+02, 5e-08 instead of 0.00000005.
    std::string best;
    for (int precision = 1; precision <= 17; ++precision) {
        char buffer[64];
        std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
        double parsed = 0.0;
        std::sscanf(buffer, "%lf", &parsed);
        if (parsed == value && (best.empty() || std::strlen(buffer) < best.size())) {
            best = buffer;
        }
    }
    if (!best.empty()) {
        return best;
    }
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

}  // namespace amsvp::support
