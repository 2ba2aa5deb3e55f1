#include "perfbench/src/inputs.h"

#include <string_view>

#include "perfbench/src/rng.h"

namespace perfbench {

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kPath: return "path";
    case QueryClass::kProbe: return "probe";
    case QueryClass::kScalar: return "scalar";
    case QueryClass::kMiss: return "miss";
  }
  return "?";
}

const char* VerbMode(Verb v) {
  switch (v) {
    case Verb::kNodes: return "full";
    case Verb::kExists: return "exists";
    case Verb::kFirst: return "first";
    case Verb::kLimit: return "limit";
    case Verb::kEval: return "full";
  }
  return "?";
}

std::string QueryTemplate::Fill(size_t literal) const {
  if (literals.empty()) return text;
  const size_t at = text.find("{}");
  return text.substr(0, at) + literals[literal] + text.substr(at + 2);
}

namespace {

constexpr int kLabels = 8;  // a..h
constexpr int kChildChoices[3] = {1, 2, 5};

char Label(int i) { return static_cast<char>('a' + i); }

}  // namespace

AdversarialInput MakeAdversarial(uint64_t seed, int elements) {
  Rng rng(seed, 1);
  // Element 0 is <r>. Label -1 is y (leaf only), 0..7 are a..h.
  std::vector<int> parent(elements, -1), label(elements, 0), depth(elements, 0);
  std::vector<std::vector<int>> children(elements);
  std::vector<int> open;  // elements that may take children
  open.push_back(0);
  for (int e = 1; e < elements; ++e) {
    // The earlier of two uniform picks: a shallower, bushier tree than a
    // plain random recursive tree.
    const size_t i = std::min(rng.Below(open.size()), rng.Below(open.size()));
    const int p = open[i];
    parent[e] = p;
    depth[e] = depth[p] + 1;
    if (p != 0 && rng.Chance(0.08)) {
      label[e] = -1;
    } else if (p == 0) {
      label[e] = static_cast<int>(rng.Below(kLabels));
    } else {
      label[e] = (label[p] + kChildChoices[rng.Below(3)]) % kLabels;
    }
    children[p].push_back(e);
    if (label[e] >= 0) open.push_back(e);
  }

  AdversarialInput out;
  std::string& xml = out.xml;
  xml.reserve(static_cast<size_t>(elements) * 24);
  // Iterative preorder: a negative stack entry closes element ~entry.
  std::vector<int> stack{0};
  while (!stack.empty()) {
    const int e = stack.back();
    stack.pop_back();
    if (e < 0) {
      const int c = ~e;
      xml += "</";
      xml += c == 0 ? 'r' : (label[c] < 0 ? 'y' : Label(label[c]));
      xml += '>';
      continue;
    }
    const char name = e == 0 ? 'r' : (label[e] < 0 ? 'y' : Label(label[e]));
    xml += '<';
    xml += name;
    if (e != 0 && rng.Chance(0.3)) {
      xml += " v=\"" + std::to_string(rng.Below(1000)) + "\"";
    }
    xml += '>';
    if (children[e].empty()) {
      xml += std::to_string(rng.Below(1000));
      xml += "</";
      xml += name;
      xml += '>';
      continue;
    }
    stack.push_back(~e);
    for (auto it = children[e].rbegin(); it != children[e].rend(); ++it) {
      stack.push_back(*it);
    }
  }

  // Label chains L1/L2/L3 that exist: the labels above a random element
  // at depth >= 4 whose own label is not y.
  auto chain = [&](std::string& l1, std::string& l2, std::string& l3) {
    for (;;) {
      const int e = static_cast<int>(rng.Below(elements));
      if (depth[e] < 4 || label[e] < 0) continue;
      l3 = Label(label[e]);
      l2 = Label(label[parent[e]]);
      l1 = Label(label[parent[parent[e]]]);
      return;
    }
  };
  std::string a, b, c;
  auto add = [&](QueryClass cls, Verb verb, std::string text) {
    out.queries.push_back({cls, verb, std::move(text)});
  };
  using QC = QueryClass;
  chain(a, b, c);
  add(QC::kPath, Verb::kNodes, "//" + c);
  add(QC::kPath, Verb::kNodes, "//" + b + "/" + c);
  add(QC::kPath, Verb::kNodes, "//" + a + "//" + c);
  add(QC::kPath, Verb::kNodes, "//" + a + "[" + b + "]/" + b);
  chain(a, b, c);
  add(QC::kProbe, Verb::kExists, "//" + b + "/" + c);
  add(QC::kProbe, Verb::kFirst, "//" + a + "//" + c);
  add(QC::kProbe, Verb::kLimit, "//" + a + "/" + b);
  add(QC::kProbe, Verb::kExists, "//" + a + "[@v > 500]/" + b);
  chain(a, b, c);
  add(QC::kScalar, Verb::kEval, "count(//" + a + "/" + b + ")");
  add(QC::kScalar, Verb::kEval, "sum(//" + b + "/@v)");
  add(QC::kScalar, Verb::kEval, "boolean(//" + a + "/" + b + "/" + c + ")");
  add(QC::kScalar, Verb::kNodes, "//" + a + "[count(" + b + ") > 1]");
  add(QC::kScalar, Verb::kEval, "count(//" + c + ")");
  chain(a, b, c);
  add(QC::kMiss, Verb::kNodes, "//y/" + a);
  add(QC::kMiss, Verb::kExists, "//" + a + "/y/" + b);
  add(QC::kMiss, Verb::kNodes, "//nosuch/" + c);
  add(QC::kMiss, Verb::kEval, "count(//y//" + b + ")");
  return out;
}

namespace {

constexpr const char* kCountries[] = {
    "Austria", "Brazil", "Canada", "Denmark", "Egypt",  "France",
    "Ghana",   "India",  "Japan",  "Kenya",   "Mexico", "Norway"};
constexpr const char* kFirst[] = {"Ada", "Bo", "Cy", "Di", "Ed", "Flo",
                                  "Gus", "Hal", "Ivy", "Jo", "Kai", "Lu"};
constexpr const char* kLast[] = {"Ames", "Berg", "Cole", "Dunn", "Eck",
                                 "Fox",  "Gray", "Hale", "Imes", "Judd"};

std::string PersonName(int k) {
  return std::string(kFirst[k % 12]) + " " + kLast[(k / 12) % 10];
}

}  // namespace

std::string MakeAuctionXml(uint64_t seed, int people) {
  Rng rng(seed, 2);
  std::string x;
  x.reserve(static_cast<size_t>(people) * 900);
  auto person = [&] { return "person" + std::to_string(rng.Below(people)); };
  x += "<site><people>";
  for (int k = 0; k < people; ++k) {
    x += "<person id=\"person" + std::to_string(k) + "\"><name>" +
         PersonName(static_cast<int>(rng.Below(120))) +
         "</name><profile income=\"" +
         std::to_string(rng.Range(10, 120) * 1000) + "\">";
    for (int i = static_cast<int>(rng.Below(4)); i > 0; --i) {
      x += "<interest category=\"category" + std::to_string(rng.Below(20)) +
           "\"/>";
    }
    x += "</profile></person>";
  }
  x += "</people><items>";
  for (int k = 0; k < people; ++k) {
    x += "<item id=\"item" + std::to_string(k) + "\"><name>item " +
         std::to_string(k) + "</name><location>" +
         kCountries[rng.Below(12)] + "</location><quantity>" +
         std::to_string(rng.Range(1, 9)) + "</quantity></item>";
  }
  x += "</items><open_auctions>";
  for (int k = 0; k < people; ++k) {
    int price = static_cast<int>(rng.Range(10, 300));
    x += "<open_auction id=\"oa" + std::to_string(k) + "\"><initial>" +
         std::to_string(price) + "</initial>";
    for (int b = static_cast<int>(rng.Below(7)); b > 0; --b) {
      const int inc = static_cast<int>(rng.Range(1, 30));
      price += inc;
      x += "<bidder person=\"" + person() + "\"><increase>" +
           std::to_string(inc) + "</increase></bidder>";
    }
    x += "<current>" + std::to_string(price) + "</current><itemref item=\"item" +
         std::to_string(rng.Below(people)) + "\"/><seller person=\"" +
         person() + "\"/></open_auction>";
  }
  x += "</open_auctions><closed_auctions>";
  for (int k = 0; k < people / 2; ++k) {
    x += "<closed_auction><seller person=\"" + person() +
         "\"/><buyer person=\"" + person() + "\"/><itemref item=\"item" +
         std::to_string(rng.Below(people)) + "\"/><price>" +
         std::to_string(rng.Range(10, 400)) + "</price></closed_auction>";
  }
  x += "</closed_auctions></site>";
  return x;
}

std::vector<QueryTemplate> AuctionTemplates(int people) {
  auto range = [](int lo, int hi, int step, const std::string& prefix = "") {
    std::vector<std::string> v;
    for (int i = lo; i <= hi; i += step) v.push_back(prefix + std::to_string(i));
    return v;
  };
  auto quoted = [](std::vector<std::string> v) {
    for (std::string& s : v) s = "'" + s + "'";
    return v;
  };
  const auto persons = quoted(range(0, people - 1, 1, "person"));
  std::vector<std::string> countries, names;
  for (const char* c : kCountries) countries.push_back(std::string("'") + c + "'");
  for (int k = 0; k < 120; ++k) names.push_back("'" + PersonName(k) + "'");
  const auto prices = range(20, 300, 10);
  using QC = QueryClass;
  return {
      {QC::kPath, Verb::kNodes, "/site/people/person[profile/@income > {}]/name",
       range(20000, 110000, 5000)},
      {QC::kPath, Verb::kNodes, "//open_auction[bidder/@person = {}]/itemref",
       persons},
      {QC::kPath, Verb::kNodes,
       "id(//open_auction[initial > {}]/itemref/@item)/name", prices},
      {QC::kPath, Verb::kNodes, "id(//closed_auction/buyer/@person)/name", {}},
      {QC::kPath, Verb::kNodes,
       "//open_auction[seller/@person = bidder/@person][initial > {}]/itemref",
       prices},
      {QC::kPath, Verb::kNodes, "//item[location = {}]/name", countries},
      {QC::kProbe, Verb::kExists, "//person[@id = {}]/profile/interest",
       persons},
      {QC::kProbe, Verb::kFirst, "//open_auction[current > {}]", prices},
      {QC::kProbe, Verb::kLimit, "//item[quantity > {}]/location",
       range(1, 8, 1)},
      {QC::kScalar, Verb::kEval, "count(//open_auction[count(bidder) > {}])",
       range(0, 5, 1)},
      {QC::kScalar, Verb::kEval, "sum(//closed_auction[price > {}]/price)",
       prices},
      {QC::kScalar, Verb::kEval, "boolean(//person[name = {}])", names},
      {QC::kScalar, Verb::kNodes, "//open_auction[count(bidder) >= {}]/seller",
       range(1, 6, 1)},
      {QC::kScalar, Verb::kEval, "count(//bidder)", {}},
      {QC::kMiss, Verb::kNodes, "//person/bidder[@person = {}]", persons},
      {QC::kMiss, Verb::kExists, "//item/price", {}},
      {QC::kMiss, Verb::kEval, "count(//closed_auction/bidder/increase)", {}},
  };
}

}  // namespace perfbench
