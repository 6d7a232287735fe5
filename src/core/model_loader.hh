/**
 * @file
 * The one model-open path every consumer shares.
 *
 * `hdham classify/info/load`, `hdham save` and the resident
 * hdham_server all need the same sequence: mmap + validate an
 * hdham.model.v1 file, and report provenance and mapping residency
 * into a metrics registry. This module owns that sequence so the CLI
 * and the server cannot drift apart.
 *
 * A LoadedModel is the mutable-configuration stage of a model's
 * life: callers may set scan policy and metrics, or re-lay a
 * materialized copy. Serving freezes it: intoSnapshot() moves the
 * mapped view into an immutable snapshot::MemorySnapshot without
 * reopening or copying the class store.
 */

#ifndef HDHAM_CORE_MODEL_LOADER_HH
#define HDHAM_CORE_MODEL_LOADER_HH

#include <memory>
#include <string>
#include <utility>

#include "core/assoc_memory.hh"
#include "core/metrics.hh"
#include "core/model_file.hh"
#include "core/snapshot.hh"

namespace hdham::modelload
{

/** Knobs of the shared open path (checksum verification). */
using OpenOptions = modelfile::ModelView::Options;

/**
 * An hdham.model.v1 file mapped and validated, its memory served
 * zero-copy in place. memory() is mutable so callers can set scan
 * policy and metrics; the mapped store still rejects mutation of the
 * rows.
 */
class LoadedModel
{
  public:
    /**
     * Map and validate the model file at @p path.
     * @throws std::runtime_error on a missing, foreign or malformed
     *         file.
     */
    static LoadedModel open(const std::string &path,
                            const OpenOptions &opts = {});

    /** The opened memory, served zero-copy from the mapping. */
    AssociativeMemory &memory() { return view.memory(); }
    const AssociativeMemory &memory() const { return view.memory(); }

    /** The mapped view (never null). */
    const modelfile::ModelView *modelView() const { return &view; }

    /**
     * Record model provenance in the metrics "info" map: model.path,
     * model.format, model.version and model.checksum.
     */
    void recordInfo(metrics::Registry &registry) const;

    /**
     * Freeze the opened model into an immutable MemorySnapshot,
     * consuming this object: the view moves in and the store stays
     * zero-copy. This is how the server turns the shared open path
     * into its first published snapshot.
     */
    std::unique_ptr<snapshot::MemorySnapshot>
    intoSnapshot(const snapshot::MemorySnapshot::Options &opts = {}) &&;

  private:
    explicit LoadedModel(modelfile::ModelView &&mapped)
        : view(std::move(mapped))
    {
    }

    modelfile::ModelView view;
};

/**
 * Deep-copy a model into a fresh owned memory (the only way to
 * re-lay or mutate a mapped one).
 */
AssociativeMemory materialize(const AssociativeMemory &src);

/**
 * Record the mmap residency gauges of @p view (model.mapped_bytes /
 * model.resident_bytes -- how much of the file the queries so far
 * actually pulled into memory) into @p registry. Shared by the CLI
 * and the server's stats path, which holds the view inside a pinned
 * snapshot.
 */
void recordResidency(metrics::Registry &registry,
                     const modelfile::ModelView &view);

} // namespace hdham::modelload

#endif // HDHAM_CORE_MODEL_LOADER_HH
