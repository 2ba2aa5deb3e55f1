#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The four query classes every workload runs; each end-to-end latency
/// metric is named after one of them.
enum class QueryClass : int { kPath = 0, kProbe, kScalar, kMiss };
inline constexpr int kNumClasses = 4;
const char* ClassName(QueryClass c);

/// Which xpe::Query verb (library workloads) or HTTP result mode (serve)
/// a query is issued through.
enum class Verb { kNodes, kExists, kFirst, kLimit, kEval };
const char* VerbMode(Verb v);  // the serve API's "mode" spelling
inline constexpr uint64_t kLimitN = 10;

struct QuerySpec {
  QueryClass cls;
  Verb verb;
  std::string text;
};

/// A serve-workload query template: `text` holds one `{}` placeholder
/// filled with a literal from `literals`, drawn Zipf-skewed per request
/// (or no placeholder and no literals).
struct QueryTemplate {
  QueryClass cls;
  Verb verb;
  std::string text;
  std::vector<std::string> literals;
  std::string Fill(size_t literal) const;
};

/// Random element tree over labels a..h, where each label admits only
/// three child labels and `y` is always a leaf: the label-path count grows
/// with |D| (strong-DataGuide worst case) while `//y/...` stays provably
/// empty. Queries are drawn from label chains that exist in the tree.
struct AdversarialInput {
  std::string xml;
  std::vector<QuerySpec> queries;
};
AdversarialInput MakeAdversarial(uint64_t seed, int elements);

/// XMark-style auction site: people, items, open and closed auctions,
/// cross-referenced by id attributes. A fixed schema with ~25 label paths.
std::string MakeAuctionXml(uint64_t seed, int people);
/// The auction query classes: joins, value predicates, id() and
/// count(bidder) predicates, with literals drawn from pools that match
/// the generated values.
std::vector<QueryTemplate> AuctionTemplates(int people);

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
