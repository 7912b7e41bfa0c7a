// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it. Its path
// sits under the main module's, which is what lets it import
// protogen/internal/...
module protogen/bench

go 1.22

require protogen v0.0.0

replace protogen => ../
