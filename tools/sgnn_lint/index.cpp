#include <algorithm>
#include <deque>
#include <fstream>
#include <sstream>

#include "lint.hpp"
#include "text_util.hpp"

// The cross-TU project index: one walk over src/, include/ and tests/,
// each file parsed exactly once, then an include graph plus a token-level
// symbol table and call graph over the library code. Every semantic rule
// family (R7-R10) and R2 consume this — no rule re-reads the tree.

namespace sgnn::lint {

namespace {

using text::is_all_caps;
using text::is_word;
using text::line_of;
using text::match_brace;
using text::match_paren;
using text::skip_space;
using text::starts_with;
using text::word_at;
using text::word_before;

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string display_path(const std::filesystem::path& root,
                         const std::filesystem::path& path) {
  return std::filesystem::relative(path, root).generic_string();
}

std::vector<std::filesystem::path> sources_under(
    const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  if (!std::filesystem::exists(dir)) return files;
  for (auto it = std::filesystem::recursive_directory_iterator(dir);
       it != std::filesystem::recursive_directory_iterator(); ++it) {
    if (it->is_directory()) {
      const auto name = it->path().filename().string();
      // Fixture trees deliberately violate every rule; build output and VCS
      // metadata are not ours to lint.
      if (name == "lint_fixtures" || name == ".git" ||
          starts_with(name, "build")) {
        it.disable_recursion_pending();
      }
      continue;
    }
    const auto ext = it->path().extension().string();
    if (ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h") {
      files.push_back(it->path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Identifiers that precede a `(` without naming a function.
bool is_call_keyword(const std::string& name) {
  static const char* kKeywords[] = {
      "if",       "for",      "while",   "switch",   "catch",
      "return",   "sizeof",   "alignof", "decltype", "noexcept",
      "defined",  "assert",   "static_assert",       "alignas",
      "typeid",   "throw",    "new",     "delete",   "co_await",
      "co_return", "constexpr", "requires"};
  return std::any_of(std::begin(kKeywords), std::end(kKeywords),
                     [&](const char* k) { return name == k; });
}

std::vector<IncludeEdge> extract_includes(const SourceFile& file) {
  std::vector<IncludeEdge> edges;
  for (std::size_t i = 0; i < file.raw_lines.size(); ++i) {
    const std::string line = text::trim(file.raw_lines[i]);
    if (!starts_with(line, "#include") && !starts_with(line, "# include")) {
      continue;
    }
    const auto open = line.find('"');
    if (open == std::string::npos) continue;
    const auto close = line.find('"', open + 1);
    if (close == std::string::npos) continue;
    edges.push_back(
        {line.substr(open + 1, close - open - 1), static_cast<int>(i) + 1});
  }
  return edges;
}

/// Scans one file's code view for function definitions: an identifier, a
/// balanced parameter list, optional trailing qualifiers / a constructor
/// initializer list, then `{`. Token-level, so lambdas (no preceding
/// identifier), macros (ALL_CAPS), operators and control keywords are
/// filtered rather than parsed.
void extract_definitions(const SourceFile& file, int file_id,
                         std::vector<FunctionDef>& out) {
  const std::string& code = file.code;
  for (std::size_t pos = 0; pos < code.size(); ++pos) {
    if (code[pos] != '(') continue;
    const std::string name = word_before(code, pos);
    if (name.empty() || is_call_keyword(name) || is_all_caps(name)) continue;

    // word_before skipped trailing spaces; recover the name's begin offset.
    const std::size_t name_end = text::prev_significant_index(code, pos);
    const std::size_t name_begin = name_end + 1 - name.size();

    const char before = name_begin > 0 ? code[name_begin - 1] : '\0';
    if (before == '.' || before == '~') continue;  // member call / dtor
    if (before == '>' && name_begin > 1 && code[name_begin - 2] == '-') {
      continue;  // -> member call
    }
    // A `Qualifier::name` spelling: record the qualifier (class or
    // namespace — indistinguishable at token level, both useful context).
    std::string qualifier;
    if (before == ':' && name_begin > 1 && code[name_begin - 2] == ':') {
      qualifier = word_before(code, name_begin - 2);
    }
    if (word_before(code, name_begin) == "operator") continue;

    const std::size_t close = match_paren(code, pos);
    if (close == std::string::npos) continue;
    std::size_t p = skip_space(code, close + 1);
    // Trailing qualifiers between the parameter list and the body,
    // including a conditional `noexcept(expr)`.
    bool progressed = true;
    while (progressed && p < code.size()) {
      progressed = false;
      for (const auto* word : {"const", "noexcept", "override", "final"}) {
        if (!word_at(code, p, word)) continue;
        p = skip_space(code, p + std::string(word).size());
        if (std::string(word) == "noexcept" && p < code.size() &&
            code[p] == '(') {
          const std::size_t cond_close = match_paren(code, p);
          if (cond_close == std::string::npos) break;
          p = skip_space(code, cond_close + 1);
        }
        progressed = true;
      }
    }
    // Constructor initializer list: `: member(expr), base(expr) {`. Scan
    // to the first `{` outside parens, bailing at `;` (a label or a
    // ternary would have produced one first in any non-definition).
    if (p < code.size() && code[p] == ':' &&
        (p + 1 >= code.size() || code[p + 1] != ':')) {
      std::size_t q = p + 1;
      int depth = 0;
      bool found = false;
      for (; q < code.size(); ++q) {
        if (code[q] == '(') ++depth;
        if (code[q] == ')') --depth;
        if (code[q] == ';' && depth == 0) break;
        if (code[q] == '{' && depth == 0) {
          found = true;
          break;
        }
      }
      if (!found) continue;
      p = q;
    }
    if (p >= code.size() || code[p] != '{') continue;

    FunctionDef def;
    def.file = file_id;
    def.name = name;
    def.qualifier = qualifier;
    def.line = line_of(code, name_begin);
    def.name_pos = name_begin;
    def.body_begin = p;
    def.body_end = match_brace(code, p);
    out.push_back(std::move(def));
  }
}

/// Call sites inside [begin, end) of `code`: an identifier directly
/// followed by `(`, excluding keywords and macros. Spelled `Qual::name`
/// when the call carries an explicit qualifier, so resolution can bind
/// `ThreadPool::instance()` to ThreadPool's member rather than every
/// `instance` in the tree.
std::vector<std::string> extract_callees(const std::string& code,
                                         std::size_t begin, std::size_t end) {
  std::vector<std::string> callees;
  for (std::size_t pos = begin; pos < end && pos < code.size(); ++pos) {
    if (code[pos] != '(') continue;
    const std::string name = word_before(code, pos);
    if (name.empty() || is_call_keyword(name) || is_all_caps(name)) continue;
    const std::size_t name_end = text::prev_significant_index(code, pos);
    const std::size_t name_begin = name_end + 1 - name.size();
    std::string spelled = name;
    if (name_begin >= 2 && code[name_begin - 1] == ':' &&
        code[name_begin - 2] == ':') {
      const std::string qual = word_before(code, name_begin - 2);
      if (!qual.empty()) spelled = qual + "::" + name;
    }
    if (std::find(callees.begin(), callees.end(), spelled) ==
        callees.end()) {
      callees.push_back(spelled);
    }
  }
  return callees;
}

}  // namespace

int ProjectIndex::file_id(const std::string& rel_path) const {
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (files[i].path == rel_path) return static_cast<int>(i);
  }
  return -1;
}

const SourceFile* ProjectIndex::find_file(const std::string& rel_path) const {
  const int id = file_id(rel_path);
  return id < 0 ? nullptr : &files[static_cast<std::size_t>(id)];
}

ProjectIndex build_index(const std::filesystem::path& root) {
  ProjectIndex index;
  index.root = root;
  for (const auto* top : {"src", "include", "tests"}) {
    for (const auto& path : sources_under(root / top)) {
      SourceFile file = parse_source(display_path(root, path),
                                     read_file(path));
      index.bytes += file.raw.size();
      index.includes.push_back(extract_includes(file));
      index.files.push_back(std::move(file));
    }
  }
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    const SourceFile& file = index.files[i];
    // The call graph covers library code; tests call everything and would
    // only blur reachability for R8/R10.
    if (starts_with(file.path, "tests/")) continue;
    extract_definitions(file, static_cast<int>(i), index.functions);
  }
  for (std::size_t f = 0; f < index.functions.size(); ++f) {
    FunctionDef& def = index.functions[f];
    const std::string& code = index.file_of(def).code;
    def.callees =
        extract_callees(code, def.body_begin + 1, def.body_end);
    index.functions_by_name[def.name].push_back(static_cast<int>(f));
    if (!def.qualifier.empty()) {
      index.functions_by_name[def.qualifier + "::" + def.name].push_back(
          static_cast<int>(f));
    }
  }
  return index;
}

const std::vector<int>& ProjectIndex::resolve(
    const std::string& callee) const {
  static const std::vector<int> empty;
  const auto exact = functions_by_name.find(callee);
  if (exact != functions_by_name.end()) return exact->second;
  // A qualified call with no same-qualifier definition: a namespace
  // qualification of a free function — fall back to every definition of
  // the unqualified name.
  const auto sep = callee.rfind("::");
  if (sep != std::string::npos) {
    const auto plain = functions_by_name.find(callee.substr(sep + 2));
    if (plain != functions_by_name.end()) return plain->second;
  }
  return empty;
}

std::vector<bool> reachable_functions(const ProjectIndex& index,
                                      const std::vector<int>& roots) {
  std::vector<bool> reached(index.functions.size(), false);
  std::deque<int> frontier;
  for (const int id : roots) {
    if (id >= 0 && id < static_cast<int>(reached.size()) &&
        !reached[static_cast<std::size_t>(id)]) {
      reached[static_cast<std::size_t>(id)] = true;
      frontier.push_back(id);
    }
  }
  while (!frontier.empty()) {
    const int id = frontier.front();
    frontier.pop_front();
    for (const auto& callee :
         index.functions[static_cast<std::size_t>(id)].callees) {
      for (const int target : index.resolve(callee)) {
        if (!reached[static_cast<std::size_t>(target)]) {
          reached[static_cast<std::size_t>(target)] = true;
          frontier.push_back(target);
        }
      }
    }
  }
  return reached;
}

}  // namespace sgnn::lint
