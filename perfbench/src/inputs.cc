/**
 * @file
 * Workload shapes, seeded input generation with an on-disk model
 * cache, the in-process oracle, and the reply checkers.
 */

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "bench.hh"
#include "core/assoc_memory.hh"
#include "core/encoder.hh"
#include "core/model_file.hh"
#include "core/model_loader.hh"
#include "core/parallel_for.hh"
#include "core/random.hh"
#include "lang/corpus.hh"
#include "lang/pipeline.hh"

namespace perfbench
{

namespace fs = std::filesystem;
using hdham::Hypervector;
using hdham::Rng;

Workload
workloadByName(const std::string &name, bool tiny)
{
    Workload w;
    w.name = name;
    w.streamBytes = tiny ? (8u << 20) : (128u << 20);
    w.setupLaunches = tiny ? 2 : 15;
    if (name == "classify_text") {
        // The 21-language model `hdham train` writes (default
        // PipelineConfig, item memory embedded); one sentence per
        // request, so the per-request path dominates.
        w.kind = Kind::Classify;
        w.dim = tiny ? 1000 : 10000;
        w.trainChars = tiny ? 3000 : 120000;
        w.testSentences = tiny ? 10 : 200;
        w.batch = 1;
        w.readers = 4;
        w.readPool = tiny ? 16 : 1024;
        w.setupLaunches = tiny ? 2 : 31;
        w.idleProbes = tiny ? 2 : 5;
        w.replayRequests = tiny ? 16 : 200;
    } else if (name == "search_large") {
        // 64 MB of row words at full size, twice a 32 MB L3: the
        // scan is memory-bound. Clustered rows let an exact cluster
        // bound prune; 16 queries per request let query tiling share
        // each row read.
        w.kind = Kind::Search;
        w.dim = tiny ? 256 : 1024;
        w.rows = tiny ? 4000 : 500000;
        w.prototypes = tiny ? 40 : 1000;
        w.rowFlip = 0.20;
        w.queryFlip = 0.05;
        w.batch = 16;
        w.readers = 4;
        w.readPool = tiny ? 4 : 32;
        w.setupLaunches = tiny ? 2 : 5;
        w.idleProbes = tiny ? 1 : 5;
        w.replayRequests = tiny ? 4 : 8;
    } else if (name == "topk_update") {
        // i.i.d. rows (12.8 MB, fits L3) so no distance bound can
        // fire; three top-k readers beside one Update + Swap writer.
        w.kind = Kind::TopK;
        w.dim = tiny ? 256 : 1024;
        w.rows = tiny ? 2000 : 100000;
        w.batch = 4;
        w.k = 5;
        w.readers = 3;
        w.writer = true;
        w.readPool = tiny ? 8 : 128;
        w.updatePool = tiny ? 4 : 32;
        w.replayRequests = tiny ? 8 : 64;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (expected " +
                                    "classify_text, search_large "
                                    "or topk_update)");
    }
    return w;
}

std::vector<std::string>
workloadNames()
{
    return {"classify_text", "search_large", "topk_update"};
}

std::uint64_t
classifyEncodeSeed()
{
    return hdham::lang::PipelineConfig{}.seed ^ 0x636c6966ULL;
}

namespace
{

/** Labeled test sentences of a corpus. */
struct Sentence
{
    std::string label;
    std::string text;
};

std::vector<Sentence>
sentencesOf(const hdham::lang::SyntheticCorpus &corpus)
{
    std::vector<Sentence> out;
    for (std::size_t l = 0; l < corpus.numLanguages(); ++l)
        for (const std::string &s : corpus.testSentences(l))
            out.push_back({corpus.labelOf(l), s});
    return out;
}

/** Save @p am to @p path durably: temp file, fsync, rename. */
void
saveDurably(const std::string &path, const hdham::AssociativeMemory &am,
            const hdham::modelfile::SaveOptions &opts)
{
    const std::string tmp = path + ".tmp";
    hdham::modelfile::save(tmp, am, opts);
    const int fd = ::open(tmp.c_str(), O_RDONLY);
    if (fd < 0 || ::fsync(fd) != 0)
        throw std::runtime_error("cannot sync " + tmp);
    ::close(fd);
    fs::rename(tmp, path);
}

/** Drop cached models of @p workload other than @p keep. */
void
pruneCache(const std::string &dir, const std::string &workload,
           const std::string &keep)
{
    for (const fs::directory_entry &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.rfind(workload + "-", 0) == 0 &&
            e.path().string() != keep)
            fs::remove(e.path());
    }
}

/**
 * The classify model and its held-out sentences, trained once per
 * size: the model does not depend on the seed (the seed picks the
 * sentences sent), so every run reuses one cached training.
 */
std::vector<Sentence>
classifyModel(const Workload &w, const std::string &dir,
              std::string *modelPath)
{
    const std::string stem =
        dir + "/" + w.name + "-d" + std::to_string(w.dim) + "-c" +
        std::to_string(w.trainChars) + "-t" +
        std::to_string(w.testSentences);
    *modelPath = stem + ".hdc";
    const std::string textPath = stem + ".sentences";
    std::vector<Sentence> sentences;
    if (!fs::exists(*modelPath) || !fs::exists(textPath)) {
        pruneCache(dir, w.name, "");
        hdham::lang::CorpusConfig cc;
        cc.trainChars = w.trainChars;
        cc.testSentences = w.testSentences;
        const hdham::lang::SyntheticCorpus corpus(cc);
        hdham::lang::PipelineConfig pc;
        pc.dim = w.dim;
        const hdham::lang::RecognitionPipeline pipeline(corpus, pc);
        sentences = sentencesOf(corpus);
        {
            std::ofstream out(textPath + ".tmp");
            for (const Sentence &s : sentences)
                out << s.label << '\t' << s.text << '\n';
            if (!out.flush())
                throw std::runtime_error("cannot write " + textPath);
        }
        fs::rename(textPath + ".tmp", textPath);
        hdham::modelfile::SaveOptions so;
        so.items = &pipeline.itemMemory();
        saveDurably(*modelPath, pipeline.memory(), so);
        return sentences;
    }
    std::ifstream in(textPath);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t tab = line.find('\t');
        if (tab == std::string::npos)
            throw std::runtime_error("malformed " + textPath);
        sentences.push_back({line.substr(0, tab), line.substr(tab + 1)});
    }
    return sentences;
}

/** Bits to flip for a @p share of @p dim. */
std::size_t
flips(std::size_t dim, double share)
{
    return static_cast<std::size_t>(std::lround(share * double(dim)));
}

/** Cluster prototypes of the search model, drawn from @p seed. */
std::vector<Hypervector>
prototypesOf(const Workload &w, std::uint64_t seed)
{
    Rng rng(hdham::substreamSeed(seed, 1));
    std::vector<Hypervector> protos;
    protos.reserve(w.prototypes);
    for (std::size_t p = 0; p < w.prototypes; ++p)
        protos.push_back(Hypervector::random(w.dim, rng));
    return protos;
}

/**
 * The seeded vector model: rows around prototypes (Search, row i in
 * cluster i % prototypes, labeled p<cluster>) or i.i.d. rows (TopK,
 * labeled r<i>). Cached per seed and size; older seeds are dropped.
 */
std::string
vectorModel(const Workload &w, std::uint64_t seed, const std::string &dir,
            const std::vector<Hypervector> &protos)
{
    const std::string path = dir + "/" + w.name + "-s" +
                             std::to_string(seed) + "-r" +
                             std::to_string(w.rows) + "-d" +
                             std::to_string(w.dim) + ".hdc";
    if (fs::exists(path))
        return path;
    pruneCache(dir, w.name, path);
    Rng rng(hdham::substreamSeed(seed, 2));
    hdham::AssociativeMemory am(w.dim);
    am.reserve(w.rows);
    for (std::size_t i = 0; i < w.rows; ++i) {
        if (w.kind == Kind::Search) {
            const std::size_t c = i % protos.size();
            Hypervector hv = protos[c];
            hv.injectErrors(flips(w.dim, w.rowFlip), rng);
            am.store(hv, "p" + std::to_string(c));
        } else {
            am.store(Hypervector::random(w.dim, rng),
                     "r" + std::to_string(i));
        }
    }
    saveDurably(path, am, {});
    return path;
}

/** Oracle answers for every read request, on the served model. */
void
computeOracle(const Workload &w, Inputs &in)
{
    hdham::modelload::LoadedModel model =
        hdham::modelload::LoadedModel::open(in.modelPath);
    const hdham::AssociativeMemory &am = model.memory();

    std::vector<ReadRequest *> flat;
    for (std::vector<ReadRequest> &stream : in.reads)
        for (ReadRequest &r : stream)
            flat.push_back(&r);

    if (w.kind == Kind::TopK) {
        const std::size_t depth = w.k + in.updatedRows.size();
        hdham::parallelFor(
            flat.size(), 4, [&](std::size_t b, std::size_t e) {
                for (std::size_t i = b; i < e; ++i) {
                    ReadRequest &r = *flat[i];
                    for (const Hypervector &q : r.queries) {
                        Expected ex;
                        for (const hdham::RankedMatch &m :
                             am.searchTopK(q, depth)) {
                            if (in.updatedRows.count(m.classId) ||
                                ex.ranked.size() == w.k)
                                continue;
                            ex.ranked.push_back({m.classId, m.distance});
                        }
                        r.expect.push_back(std::move(ex));
                    }
                }
            });
        return;
    }

    std::vector<Hypervector> queries;
    if (w.kind == Kind::Classify) {
        const hdham::ItemMemory items = model.modelView()->itemMemory();
        const hdham::Encoder encoder(
            items, hdham::lang::PipelineConfig{}.ngram);
        for (ReadRequest *r : flat) {
            Rng rng(classifyEncodeSeed());
            for (const std::string &t : r->texts)
                queries.push_back(encoder.encode(t, rng));
        }
    } else {
        for (ReadRequest *r : flat)
            for (const Hypervector &q : r->queries)
                queries.push_back(q);
    }
    const std::vector<hdham::SearchResult> results =
        am.searchBatch(queries, 4);
    std::size_t next = 0;
    for (ReadRequest *r : flat) {
        for (std::size_t i = 0; i < r->truth.size(); ++i, ++next) {
            Expected ex;
            ex.classId = results[next].classId;
            ex.distance = results[next].bestDistance;
            ex.label = am.labelOf(ex.classId);
            r->expect.push_back(std::move(ex));
        }
    }
}

} // namespace

Inputs
makeInputs(const Workload &w, std::uint64_t seed,
           const std::string &workDir)
{
    const std::string dir = workDir + "/inputs";
    fs::create_directories(dir);
    Inputs in;

    std::vector<Sentence> sentences;
    std::vector<Hypervector> protos;
    if (w.kind == Kind::Classify) {
        sentences = classifyModel(w, dir, &in.modelPath);
    } else {
        // Update texts only: a small corpus of the same languages.
        hdham::lang::CorpusConfig cc;
        cc.trainChars = 1000;
        cc.testSentences = 20;
        sentences = sentencesOf(hdham::lang::SyntheticCorpus(cc));
        if (w.kind == Kind::Search)
            protos = prototypesOf(w, seed);
        in.modelPath = vectorModel(w, seed, dir, protos);
    }

    // Update requests (the TopK writer, or idle probes elsewhere):
    // labeled sentences merged into existing classes.
    Rng urng(hdham::substreamSeed(seed, 3));
    const std::size_t updates =
        w.writer ? w.updatePool : w.idleProbes;
    for (std::size_t u = 0; u < updates; ++u) {
        UpdateRequest req;
        for (std::size_t s = 0; s < w.updateSamples; ++s) {
            const Sentence &pick =
                sentences[urng.nextBelow(sentences.size())];
            std::string label = pick.label;
            if (w.kind == Kind::Search) {
                label = "p" + std::to_string(
                                  urng.nextBelow(w.prototypes));
            } else if (w.kind == Kind::TopK) {
                const std::uint64_t row = urng.nextBelow(w.rows);
                label = "r" + std::to_string(row);
                in.updatedRows.insert(row);
            }
            req.samples.emplace_back(label, pick.text);
        }
        in.updates.push_back(std::move(req));
    }

    for (std::size_t r = 0; r < w.readers; ++r) {
        Rng rng(hdham::substreamSeed(seed, 16 + r));
        std::vector<ReadRequest> stream(w.readPool);
        for (ReadRequest &req : stream) {
            for (std::size_t i = 0; i < w.batch; ++i) {
                if (w.kind == Kind::Classify) {
                    const Sentence &s =
                        sentences[rng.nextBelow(sentences.size())];
                    req.texts.push_back(s.text);
                    req.truth.push_back(s.label);
                } else if (w.kind == Kind::Search) {
                    const std::size_t p = rng.nextBelow(w.prototypes);
                    Hypervector q = protos[p];
                    q.injectErrors(flips(w.dim, w.queryFlip), rng);
                    req.queries.push_back(std::move(q));
                    req.truth.push_back("p" + std::to_string(p));
                } else {
                    req.queries.push_back(
                        Hypervector::random(w.dim, rng));
                }
            }
        }
        in.reads.push_back(std::move(stream));
    }
    computeOracle(w, in);
    return in;
}

Verdict
checkQuery(const ReadRequest &req, const hdham::serve::QueryReply &reply)
{
    Verdict v;
    v.items = req.expect.size();
    if (reply.results.size() != req.expect.size()) {
        v.exact = false;
        v.why = "result count " + std::to_string(reply.results.size()) +
                " != " + std::to_string(req.expect.size());
        return v;
    }
    for (std::size_t i = 0; i < req.expect.size(); ++i) {
        const hdham::serve::MatchReply &got = reply.results[i];
        const Expected &want = req.expect[i];
        if (got.classId != want.classId ||
            got.distance != want.distance || got.label != want.label) {
            v.exact = false;
            v.why = "item " + std::to_string(i) + ": got class " +
                    std::to_string(got.classId) + " distance " +
                    std::to_string(got.distance) + ", oracle class " +
                    std::to_string(want.classId) + " distance " +
                    std::to_string(want.distance);
        }
        if (got.label == req.truth[i])
            ++v.truthHits;
    }
    return v;
}

Verdict
checkTopK(const ReadRequest &req, std::size_t k,
          const std::set<std::uint64_t> &updatedRows,
          const hdham::serve::TopKReply &reply)
{
    Verdict v;
    v.items = req.expect.size();
    if (reply.results.size() != req.expect.size()) {
        v.exact = false;
        v.why = "query count " + std::to_string(reply.results.size()) +
                " != " + std::to_string(req.expect.size());
        return v;
    }
    for (std::size_t i = 0; i < req.expect.size(); ++i) {
        const std::vector<hdham::serve::RankedReply> &got =
            reply.results[i];
        bool ok = got.size() == k;
        for (std::size_t j = 1; ok && j < got.size(); ++j) {
            const auto &a = got[j - 1];
            const auto &b = got[j];
            ok = a.distance < b.distance ||
                 (a.distance == b.distance && a.classId < b.classId);
        }
        // An updated row may enter or leave the top k; every other
        // row keeps its generated distance, so the untouched entries
        // must be the head of the oracle's ranking over those rows.
        std::size_t head = 0;
        for (std::size_t j = 0; ok && j < got.size(); ++j) {
            if (updatedRows.count(got[j].classId))
                continue;
            const auto &want = req.expect[i].ranked;
            ok = head < want.size() &&
                 got[j].classId == want[head].classId &&
                 got[j].distance == want[head].distance;
            ++head;
        }
        if (ok) {
            ++v.truthHits;
        } else {
            v.exact = false;
            v.why = "query " + std::to_string(i) +
                    ": top-k differs from the oracle or is unsorted";
        }
    }
    return v;
}

} // namespace perfbench
