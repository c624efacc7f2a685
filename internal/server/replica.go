package server

import (
	"encoding/json"
	"errors"
	"io"
	"log"
	"net/http"
	"strconv"

	"xarch/internal/extmem"
	"xarch/internal/segstore"
)

// NewReplicaHandler serves the full replication blob API over a local
// segment store: the standalone target of `xarch push` (run via
// `xarch serve -replica`). It holds no open archive — blobs land via
// the store's stage/verify/rename protocol and the keydir commit is the
// store's atomic rename — so a replica server that dies at any point
// leaves a directory `xarch fsck` (or a resumed push) can pick up.
//
// Endpoints: GET/PUT /v1/keydir, GET /v1/segments,
// GET/HEAD/PUT/DELETE /v1/segments/{name}, GET /v1/healthz.
func NewReplicaHandler(st *segstore.Local, logger *log.Logger) http.Handler {
	h := &replicaHandler{st: st, logger: logger}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/keydir", h.getKeydir)
	mux.HandleFunc("PUT /v1/keydir", h.putKeydir)
	mux.HandleFunc("GET /v1/segments", h.listSegments)
	mux.HandleFunc("GET /v1/segments/{name}", h.getSegment)
	mux.HandleFunc("HEAD /v1/segments/{name}", h.headSegment)
	mux.HandleFunc("PUT /v1/segments/{name}", h.putSegment)
	mux.HandleFunc("DELETE /v1/segments/{name}", h.deleteSegment)
	mux.HandleFunc("GET /v1/healthz", h.healthz)
	return mux
}

type replicaHandler struct {
	st     *segstore.Local
	logger *log.Logger
}

func (h *replicaHandler) logf(format string, args ...any) {
	if h.logger != nil {
		h.logger.Printf(format, args...)
	}
}

// blobName extracts and validates the {name} path segment; a response
// has been written when ok is false.
func (h *replicaHandler) blobName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if !segstore.ValidBlobName(name) {
		jsonError(w, http.StatusBadRequest, "invalid blob name %q", name)
		return "", false
	}
	return name, true
}

func (h *replicaHandler) getKeydir(w http.ResponseWriter, r *http.Request) {
	b, err := h.st.Keydir(r.Context())
	if errors.Is(err, segstore.ErrNoKeydir) {
		jsonError(w, http.StatusNotFound, "no committed generation")
		return
	}
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "keydir: %v", err)
		return
	}
	wb := segstore.WireBundle{Keydir: b.Keydir, Dict: b.Dict, Meta: b.Meta}
	if man, err := extmem.DecodeManifest(b.Keydir); err == nil {
		wb.Generation, wb.Versions = man.Generation, man.Versions
	}
	writeJSON(w, wb)
}

// putKeydir is the push's commit step. The bundle must decode as a key
// directory and every segment it references must already be installed
// with the right size — a commit can never point at blobs that are not
// there. The store installs dict and meta first, keydir last.
func (h *replicaHandler) putKeydir(w http.ResponseWriter, r *http.Request) {
	var wb segstore.WireBundle
	if err := json.NewDecoder(io.LimitReader(r.Body, 256<<20)).Decode(&wb); err != nil {
		jsonError(w, http.StatusBadRequest, "bad bundle: %v", err)
		return
	}
	if len(wb.Keydir) == 0 {
		jsonError(w, http.StatusBadRequest, "empty key directory")
		return
	}
	man, err := extmem.DecodeManifest(wb.Keydir)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "key directory does not decode: %v", err)
		return
	}
	for _, seg := range man.Segments {
		rc, size, err := h.st.Get(r.Context(), seg.Name)
		if errors.Is(err, segstore.ErrNotExist) {
			jsonError(w, http.StatusConflict, "commit references %s, which is not installed", seg.Name)
			return
		}
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "verify %s: %v", seg.Name, err)
			return
		}
		rc.Close()
		if size != seg.Size {
			jsonError(w, http.StatusConflict, "commit references %s at %d bytes, installed blob has %d", seg.Name, seg.Size, size)
			return
		}
	}
	b := &segstore.Bundle{Keydir: wb.Keydir, Dict: wb.Dict, Meta: wb.Meta}
	if err := h.st.CommitKeydir(r.Context(), b); err != nil {
		jsonError(w, http.StatusInternalServerError, "commit: %v", err)
		return
	}
	h.logf("replica committed generation %s (%d versions, %d segments)", man.Generation, man.Versions, len(man.Segments))
	w.WriteHeader(http.StatusNoContent)
}

func (h *replicaHandler) listSegments(w http.ResponseWriter, r *http.Request) {
	names, err := h.st.List(r.Context())
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "list: %v", err)
		return
	}
	if names == nil {
		names = []string{}
	}
	writeJSON(w, map[string][]string{"segments": names})
}

func (h *replicaHandler) getSegment(w http.ResponseWriter, r *http.Request) {
	name, ok := h.blobName(w, r)
	if !ok {
		return
	}
	rc, size, err := h.st.Get(r.Context(), name)
	if errors.Is(err, segstore.ErrNotExist) {
		jsonError(w, http.StatusNotFound, "no blob %s", name)
		return
	}
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "open %s: %v", name, err)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	if _, err := io.Copy(w, rc); err != nil {
		// Headers are gone; the broken stream is the client's signal.
		h.logf("stream %s: %v", name, err)
	}
}

// headSegment answers whether the blob is installed AND verifies
// against the Check in the request headers: 204 yes, 404 no. This is
// what lets a resumed push skip blobs that really made it.
func (h *replicaHandler) headSegment(w http.ResponseWriter, r *http.Request) {
	name, ok := h.blobName(w, r)
	if !ok {
		return
	}
	c, err := segstore.ParseCheckHeaders(r.Header)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	has, err := h.st.Has(r.Context(), name, c)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, "verify %s: %v", name, err)
		return
	}
	if !has {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// putSegment stages the uploaded blob, verifies it against the Check
// headers, and installs it. A short or corrupt body answers 422 — the
// client treats that as transient and re-streams.
func (h *replicaHandler) putSegment(w http.ResponseWriter, r *http.Request) {
	name, ok := h.blobName(w, r)
	if !ok {
		return
	}
	c, err := segstore.ParseCheckHeaders(r.Header)
	if err != nil {
		jsonError(w, http.StatusBadRequest, "%v", err)
		return
	}
	err = h.st.Put(r.Context(), name, c, func() (io.ReadCloser, error) {
		return io.NopCloser(r.Body), nil
	})
	if err != nil {
		if _, transient := segstore.IsTransient(err); transient || errors.Is(err, segstore.ErrVerify) {
			jsonError(w, http.StatusUnprocessableEntity, "stage %s: %v", name, err)
			return
		}
		jsonError(w, http.StatusInternalServerError, "install %s: %v", name, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

func (h *replicaHandler) deleteSegment(w http.ResponseWriter, r *http.Request) {
	name, ok := h.blobName(w, r)
	if !ok {
		return
	}
	if err := h.st.Delete(r.Context(), name); err != nil {
		jsonError(w, http.StatusInternalServerError, "delete %s: %v", name, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *replicaHandler) healthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"status": "ok", "role": "replica"}
	if b, err := h.st.Keydir(r.Context()); err == nil {
		if man, merr := extmem.DecodeManifest(b.Keydir); merr == nil {
			resp["generation"] = man.Generation
			resp["versions"] = man.Versions
		}
	}
	writeJSON(w, resp)
}
