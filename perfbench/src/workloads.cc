#include "src/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>

#include "common/random.h"
#include "query/xpath_eval.h"
#include "store/store.h"
#include "workload/doc_generator.h"
#include "workload/zipf.h"
#include "xml/serializer.h"

namespace perfbench {

using laxml::NodeId;
using laxml::Result;
using laxml::Status;
using laxml::Store;
using laxml::TokenSequence;
using laxml::net::OpCode;
using laxml::net::Request;
using laxml::net::Response;

OpClass ClassOf(OpCode code) {
  switch (code) {
    case OpCode::kRead:
    case OpCode::kReadNode:
      return OpClass::kRead;
    case OpCode::kXPath:
      return OpClass::kQuery;
    default:
      return OpClass::kWrite;
  }
}

std::string Xml(const TokenSequence& tokens) {
  Result<std::string> xml = laxml::SerializeTokens(tokens);
  return xml.ok() ? std::move(xml).value() : "<!-- unserializable -->";
}

WorkloadSize DefaultSize(const std::string& name) {
  WorkloadSize size;
  if (name == "po_feed") size.orders = 4000;
  if (name == "zipf_reads") size.orders = 55000;
  if (name == "xpath_auction") size.auction_scale = 3000;
  return size;
}

namespace {

/// splitmix64 of a seed and a key: independent, reproducible streams.
uint64_t Mix(uint64_t seed, uint64_t key) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (key + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Order `n` (1-based) at content version `version`: ten line items.
TokenSequence Order(uint64_t seed, uint64_t n, uint64_t version) {
  laxml::Random rng(Mix(Mix(seed, n), version));
  return laxml::GeneratePurchaseOrder(&rng, n, 10);
}

/// The children of an order: everything between its attributes and its
/// closing tag.
TokenSequence OrderContent(const TokenSequence& order) {
  size_t begin = 1;
  while (begin < order.size() &&
         (order[begin].type == laxml::TokenType::kBeginAttribute ||
          order[begin].type == laxml::TokenType::kEndAttribute)) {
    ++begin;
  }
  return TokenSequence(order.begin() + static_cast<ptrdiff_t>(begin),
                       order.end() - 1);
}

const TokenSequence& OrdersRoot() {
  static const TokenSequence root =
      laxml::SequenceBuilder().BeginElement("purchase-orders").End().Build();
  return root;
}

/// Opens a fresh store at `path`, runs `fill`, and closes it with a
/// checkpoint, so the server opens a clean image.
Status BuildFresh(const std::string& path,
                  const std::function<Status(Store*)>& fill) {
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
  Result<std::unique_ptr<Store>> store = Store::Open(path, {});
  if (!store.ok()) return store.status();
  LAXML_RETURN_IF_ERROR(fill(store->get()));
  return (*store)->Sync();
}

Status Mismatch(const std::string& what, const std::string& got,
                const std::string& want) {
  return Status::Corruption(what + ": got " + std::to_string(got.size()) +
                            " bytes '" + got.substr(0, 80) + "', want " +
                            std::to_string(want.size()) + " bytes '" +
                            want.substr(0, 80) + "'");
}

// ---------------------------------------------------------------------
// po_feed

class PoFeed : public Workload {
 public:
  PoFeed(uint64_t seed, const WorkloadSize& size)
      : seed_(seed), size_(size), conns_(kConnections) {}

  int connections() const override { return kConnections; }
  bool wal() const override { return true; }

  Status BuildStore(const std::string& path) override {
    std::lock_guard<std::mutex> lock(mu_);
    window_.clear();
    Status st = BuildFresh(path, [&](Store* store) -> Status {
      LAXML_ASSIGN_OR_RETURN(root_, store->InsertTopLevel(OrdersRoot()));
      for (uint64_t n = 1; n <= static_cast<uint64_t>(size_.orders); ++n) {
        LAXML_ASSIGN_OR_RETURN(
            NodeId id, store->InsertIntoLast(root_, Order(seed_, n, 0)));
        window_[id] = n;
      }
      return Status::OK();
    });
    next_order_ = static_cast<uint64_t>(size_.orders) + 1;
    for (int c = 0; c < kConnections; ++c) {
      conns_[static_cast<size_t>(c)] =
          Conn{laxml::Random(Mix(seed_, 1000 + static_cast<uint64_t>(c))),
               false};
    }
    return st;
  }

  Op NextOp(int conn) override {
    Conn& c = conns_[static_cast<size_t>(conn)];
    if (c.pending_delete) {
      // The second half of a write: retire the oldest order.
      c.pending_delete = false;
      std::lock_guard<std::mutex> lock(mu_);
      auto oldest = window_.begin();
      Op op{OpCode::kDeleteNode, oldest->first, oldest->second};
      window_.erase(oldest);
      return op;
    }
    // A write is two requests, so 2/11 of iterations read to make reads
    // 10% of requests.
    if (c.rng.NextDouble() < 2.0 / 11.0) {
      std::lock_guard<std::mutex> lock(mu_);
      const uint64_t recent = std::min<uint64_t>(kRecent, window_.size());
      auto it = window_.end();
      std::advance(it, -1 - static_cast<ptrdiff_t>(c.rng.Uniform(recent)));
      return Op{OpCode::kReadNode, it->first, it->second};
    }
    return Op{OpCode::kInsertIntoLast, root_, next_order_.fetch_add(1)};
  }

  Request MakeRequest(const Op& op) const override {
    Request req;
    req.op = op.code;
    req.target = op.target;
    if (op.code == OpCode::kInsertIntoLast) {
      req.data = Order(seed_, op.arg, 0);
    }
    return req;
  }

  Status Check(int conn, const Op& op, const Response& resp) override {
    switch (op.code) {
      case OpCode::kInsertIntoLast: {
        if (resp.id == laxml::kInvalidNodeId) {
          return Status::Corruption("po_feed: insert returned no id");
        }
        std::lock_guard<std::mutex> lock(mu_);
        if (!window_.emplace(resp.id, op.arg).second) {
          return Status::Corruption("po_feed: insert reused id " +
                                    std::to_string(resp.id));
        }
        conns_[static_cast<size_t>(conn)].pending_delete = true;
        return Status::OK();
      }
      case OpCode::kReadNode: {
        const std::string want = Xml(Order(seed_, op.arg, 0));
        const std::string got = Xml(resp.tokens);
        if (got != want) {
          return Mismatch("po_feed: Read(" + std::to_string(op.target) +
                              ") of order " + std::to_string(op.arg),
                          got, want);
        }
        return Status::OK();
      }
      default:
        return Status::OK();
    }
  }

  Status CheckFinalDocument(const TokenSequence& doc) override {
    const std::string got = Xml(doc);
    live_bytes_ = got.size();
    if (!model_exact_) return Status::OK();
    std::string want = "<purchase-orders>";
    {
      // Ids are handed out in execution order and every insert appends
      // as the last child, so document order is id order.
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [id, n] : window_) {
        want += Xml(Order(seed_, n, 0));
      }
    }
    want += "</purchase-orders>";
    if (got != want) return Mismatch("po_feed: final Read()", got, want);
    return Status::OK();
  }

  uint64_t live_xml_bytes() const override { return live_bytes_; }

 private:
  static constexpr int kConnections = 4;
  static constexpr uint64_t kRecent = 64;

  struct Conn {
    laxml::Random rng;
    bool pending_delete = false;
  };

  const uint64_t seed_;
  const WorkloadSize size_;
  NodeId root_ = laxml::kInvalidNodeId;
  std::mutex mu_;
  std::map<NodeId, uint64_t> window_;  ///< Live order id -> order number.
  std::atomic<uint64_t> next_order_{1};
  std::vector<Conn> conns_;
  uint64_t live_bytes_ = 0;
};

// ---------------------------------------------------------------------
// zipf_reads

class ZipfReads : public Workload {
 public:
  ZipfReads(uint64_t seed, const WorkloadSize& size)
      : seed_(seed), size_(size) {}

  int connections() const override { return kConnections; }
  bool reads_final_document() const override { return false; }

  Status Prepare() override {
    const size_t n = static_cast<size_t>(size_.orders);
    model_.resize(n);
    version_.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      model_[i] = Xml(Order(seed_, i + 1, 0));
    }
    // Each connection owns orders i with i % kConnections == conn, in a
    // seeded order, so Zipf ranks land all over the store.
    conns_.clear();
    for (int c = 0; c < kConnections; ++c) {
      std::vector<uint32_t> owned;
      for (size_t i = static_cast<size_t>(c); i < n; i += kConnections) {
        owned.push_back(static_cast<uint32_t>(i));
      }
      laxml::Random shuffle(Mix(seed_, 2000 + static_cast<uint64_t>(c)));
      for (size_t k = owned.size(); k > 1; --k) {
        std::swap(owned[k - 1], owned[shuffle.Uniform(k)]);
      }
      const uint64_t owned_count = owned.size();
      conns_.push_back(std::make_unique<Conn>(
          std::move(owned),
          laxml::ZipfGenerator(owned_count, kZipfS,
                               Mix(seed_, 3000 + static_cast<uint64_t>(c))),
          laxml::Random(Mix(seed_, 4000 + static_cast<uint64_t>(c)))));
    }
    return Status::OK();
  }

  Status BuildStore(const std::string& path) override {
    ids_.assign(static_cast<size_t>(size_.orders), laxml::kInvalidNodeId);
    return BuildFresh(path, [&](Store* store) -> Status {
      LAXML_ASSIGN_OR_RETURN(NodeId root, store->InsertTopLevel(OrdersRoot()));
      for (size_t i = 0; i < ids_.size(); ++i) {
        LAXML_ASSIGN_OR_RETURN(
            ids_[i], store->InsertIntoLast(root, Order(seed_, i + 1, 0)));
      }
      return Status::OK();
    });
  }

  Op NextOp(int conn) override {
    Conn& c = *conns_[static_cast<size_t>(conn)];
    const uint32_t i = c.owned[c.zipf.Next()];
    if (c.rng.NextDouble() < kWriteShare) {
      const uint64_t version = version_[i] + 1;
      return Op{OpCode::kReplaceContent, ids_[i],
                (static_cast<uint64_t>(i) << 32) | version};
    }
    return Op{OpCode::kReadNode, ids_[i], i};
  }

  Request MakeRequest(const Op& op) const override {
    Request req;
    req.op = op.code;
    req.target = op.target;
    if (op.code == OpCode::kReplaceContent) {
      req.data = OrderContent(
          Order(seed_, (op.arg >> 32) + 1, op.arg & 0xffffffffu));
    }
    return req;
  }

  Status Check(int, const Op& op, const Response& resp) override {
    if (op.code == OpCode::kReplaceContent) {
      // Attributes are children in the token model, so the replaced
      // order keeps only its element.
      const size_t i = static_cast<size_t>(op.arg >> 32);
      version_[i] = static_cast<uint32_t>(op.arg & 0xffffffffu);
      TokenSequence order = {laxml::Token::BeginElement("purchase-order")};
      const TokenSequence content = MakeRequest(op).data;
      order.insert(order.end(), content.begin(), content.end());
      order.push_back(laxml::Token::EndElement());
      model_[i] = Xml(order);
      return Status::OK();
    }
    const std::string got = Xml(resp.tokens);
    const std::string& want = model_[static_cast<size_t>(op.arg)];
    if (got != want) {
      return Mismatch("zipf_reads: Read(" + std::to_string(op.target) + ")",
                      got, want);
    }
    return Status::OK();
  }

  Status CheckFinalDocument(const TokenSequence&) override {
    return Status::NotSupported("zipf_reads reads no final document");
  }

  uint64_t live_xml_bytes() const override {
    uint64_t bytes = std::string("<purchase-orders></purchase-orders>").size();
    for (const std::string& m : model_) bytes += m.size();
    return bytes;
  }

 private:
  static constexpr int kConnections = 2;
  static constexpr double kZipfS = 0.99;
  static constexpr double kWriteShare = 0.05;

  struct Conn {
    Conn(std::vector<uint32_t> o, laxml::ZipfGenerator z, laxml::Random r)
        : owned(std::move(o)), zipf(std::move(z)), rng(r) {}
    std::vector<uint32_t> owned;  ///< Zipf rank -> order index.
    laxml::ZipfGenerator zipf;
    laxml::Random rng;
  };

  const uint64_t seed_;
  const WorkloadSize size_;
  std::vector<NodeId> ids_;
  /// Expected XML and content version per order. Only the owning
  /// connection touches an entry while the load runs.
  std::vector<std::string> model_;
  std::vector<uint32_t> version_;
  std::vector<std::unique_ptr<Conn>> conns_;
};

// ---------------------------------------------------------------------
// xpath_auction

/// Structural-index-eligible paths first, then predicate paths.
constexpr const char* kAuctionQueries[] = {
    "//item//name",
    "/site/regions//item/name",
    "//person/name",
    "//open_auction//bidder",
    "/site/people/person/name",
    "//item[name]",
    "//person[2]",
};
constexpr uint64_t kEligibleQueries = 5;
constexpr uint64_t kQueryCount = std::size(kAuctionQueries);

class XPathAuction : public Workload {
 public:
  XPathAuction(uint64_t seed, const WorkloadSize& size)
      : seed_(seed), size_(size), rngs_() {}

  int connections() const override { return kConnections; }

  Status Prepare() override {
    laxml::Random rng(Mix(seed_, 0));
    doc_ = laxml::GenerateAuctionDocument(&rng, size_.auction_scale);
    doc_xml_ = Xml(doc_);
    // Reference evaluation in a private in-memory store: the same
    // single insert gives the same node ids the served store has.
    LAXML_ASSIGN_OR_RETURN(std::unique_ptr<Store> store,
                           Store::OpenInMemory({}));
    LAXML_RETURN_IF_ERROR(store->InsertTopLevel(doc_).status());
    std::vector<std::vector<NodeId>> base(kQueryCount);
    for (uint64_t q = 0; q < kQueryCount; ++q) {
      laxml::XPathEvaluator eval(store.get());
      LAXML_ASSIGN_OR_RETURN(base[q], eval.Evaluate(kAuctionQueries[q]));
    }
    {
      laxml::XPathEvaluator eval(store.get());
      LAXML_ASSIGN_OR_RETURN(std::vector<NodeId> people,
                             eval.Evaluate("/site/people"));
      if (people.size() != 1) {
        return Status::Corruption("xpath_auction: no /site/people");
      }
      people_id_ = people[0];
    }
    // The same queries with the extra person present: its nodes are
    // recorded relative to the person's id, which the server assigns.
    LAXML_ASSIGN_OR_RETURN(NodeId person,
                           store->InsertIntoLast(people_id_, Person(0)));
    for (uint64_t q = 0; q < kQueryCount; ++q) {
      laxml::XPathEvaluator eval(store.get());
      LAXML_ASSIGN_OR_RETURN(std::vector<NodeId> with,
                             eval.Evaluate(kAuctionQueries[q]));
      std::vector<Expected>& e = with_person_[q];
      e.clear();
      for (NodeId id : with) {
        e.push_back({id >= person, id >= person ? id - person : id});
      }
      base_[q] = std::move(base[q]);
    }
    return Status::OK();
  }

  Status BuildStore(const std::string& path) override {
    present_ = false;
    person_id_ = laxml::kInvalidNodeId;
    toggles_ = 0;
    generation_ = 0;
    for (int c = 0; c < kConnections; ++c) {
      rngs_[c] = laxml::Random(Mix(seed_, 6000 + static_cast<uint64_t>(c)));
      issued_count_[c] = rngs_[c].Uniform(kTogglePeriod);
    }
    return BuildFresh(path, [&](Store* store) {
      return store->InsertTopLevel(doc_).status();
    });
  }

  Op NextOp(int conn) override {
    laxml::Random& rng = rngs_[conn];
    // The mix follows a fixed cycle from a seeded offset rather than
    // coin flips, so a run's share of expensive requests (predicates,
    // cold re-warms) does not vary with the seed. Only connection 0
    // toggles the extra person, every kTogglePeriod-th request, so
    // toggles are ~1% of all requests.
    const uint64_t n = issued_count_[conn]++;
    if (conn == 0 && n % kTogglePeriod == 0) {
      generation_.fetch_add(1);  // odd: a toggle is in flight
      if (present_) {
        return Op{OpCode::kDeleteNode, person_id_, toggles_};
      }
      return Op{OpCode::kInsertIntoLast, people_id_, toggles_};
    }
    const uint64_t q = n % 5 != 0  // 80% eligible, 20% predicate paths
                           ? rng.Uniform(kEligibleQueries)
                           : kEligibleQueries +
                                 rng.Uniform(kQueryCount - kEligibleQueries);
    // Seqlock read of the toggle state this query was issued under.
    issued_[conn] = {generation_.load(), present_.load(), person_id_.load()};
    return Op{OpCode::kXPath, laxml::kInvalidNodeId, q};
  }

  Request MakeRequest(const Op& op) const override {
    Request req;
    req.op = op.code;
    req.target = op.target;
    if (op.code == OpCode::kXPath) {
      req.expr = kAuctionQueries[op.arg];
    } else if (op.code == OpCode::kInsertIntoLast) {
      req.data = Person(op.arg);
    }
    return req;
  }

  Status Check(int conn, const Op& op, const Response& resp) override {
    if (op.code == OpCode::kInsertIntoLast) {
      if (resp.id == laxml::kInvalidNodeId) {
        return Status::Corruption("xpath_auction: insert returned no id");
      }
      person_id_ = resp.id;
      present_ = true;
      ++toggles_;
      generation_.fetch_add(1);
      return Status::OK();
    }
    if (op.code == OpCode::kDeleteNode) {
      present_ = false;
      ++toggles_;
      generation_.fetch_add(1);
      return Status::OK();
    }
    const Issued& at = issued_[conn];
    const uint64_t q = op.arg;
    if (at.generation % 2 == 0 && generation_.load() == at.generation) {
      // No toggle overlapped this query: exactly one answer is right.
      if (resp.ids != ExpectedIds(q, at.present, at.person)) {
        return IdMismatch(q, resp.ids);
      }
      return Status::OK();
    }
    // A toggle overlapped: either side of it is a right answer.
    const NodeId person_now = person_id_.load();
    if (resp.ids == ExpectedIds(q, false, 0) ||
        resp.ids == ExpectedIds(q, true, at.person) ||
        resp.ids == ExpectedIds(q, true, person_now)) {
      return Status::OK();
    }
    return IdMismatch(q, resp.ids);
  }

  std::vector<Op> FinishOps() override {
    if (!present_) return {};
    generation_.fetch_add(1);
    return {Op{OpCode::kDeleteNode, person_id_, toggles_}};
  }

  Status CheckFinalDocument(const TokenSequence& doc) override {
    const std::string got = Xml(doc);
    live_bytes_ = got.size();
    if (model_exact_ && got != doc_xml_) {
      return Mismatch("xpath_auction: final Read()", got, doc_xml_);
    }
    return Status::OK();
  }

  uint64_t live_xml_bytes() const override { return live_bytes_; }

 private:
  static constexpr int kConnections = 2;
  static constexpr uint64_t kTogglePeriod = 50;

  /// A result id: absolute, or relative to the extra person's id.
  struct Expected {
    bool relative;
    NodeId value;
  };
  struct Issued {
    uint64_t generation = 0;
    bool present = false;
    NodeId person = laxml::kInvalidNodeId;
  };

  /// The extra person; every k has the same shape (fixed node count).
  TokenSequence Person(uint64_t k) const {
    laxml::Random rng(Mix(seed_, 5000 + k));
    return laxml::SequenceBuilder()
        .BeginElement("person")
        .Attribute("id", "extra" + std::to_string(k % 10))
        .LeafElement("name", rng.NextName(9))
        .LeafElement("emailaddress", rng.NextName(7) + "@example.com")
        .End()
        .Build();
  }

  std::vector<NodeId> ExpectedIds(uint64_t q, bool present,
                                  NodeId person) const {
    if (!present) return base_[q];
    std::vector<NodeId> ids;
    for (const Expected& e : with_person_[q]) {
      ids.push_back(e.relative ? person + e.value : e.value);
    }
    return ids;
  }

  Status IdMismatch(uint64_t q, const std::vector<NodeId>& got) const {
    return Status::Corruption(
        std::string("xpath_auction: ") + kAuctionQueries[q] +
        " returned " + std::to_string(got.size()) + " ids, want " +
        std::to_string(base_[q].size()) + " (or the extra-person variant)");
  }

  const uint64_t seed_;
  const WorkloadSize size_;
  TokenSequence doc_;
  std::string doc_xml_;
  NodeId people_id_ = laxml::kInvalidNodeId;
  std::vector<NodeId> base_[kQueryCount];
  std::vector<Expected> with_person_[kQueryCount];

  /// Toggle state, written only by connection 0 while generation_ is
  /// odd; queries read it seqlock-style.
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> present_{false};
  std::atomic<NodeId> person_id_{laxml::kInvalidNodeId};
  uint64_t toggles_ = 0;
  laxml::Random rngs_[kConnections];
  uint64_t issued_count_[kConnections] = {};
  Issued issued_[kConnections];
  uint64_t live_bytes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> Workload::Make(const std::string& name,
                                         uint64_t seed,
                                         const WorkloadSize& size) {
  if (name == "po_feed") return std::make_unique<PoFeed>(seed, size);
  if (name == "zipf_reads") return std::make_unique<ZipfReads>(seed, size);
  if (name == "xpath_auction") {
    return std::make_unique<XPathAuction>(seed, size);
  }
  return nullptr;
}

}  // namespace perfbench
