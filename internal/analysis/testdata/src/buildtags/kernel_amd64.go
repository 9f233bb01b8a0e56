package buildtags

// kernelName is the amd64 build's half of a per-architecture pair, selected
// by its file-name suffix.
func kernelName() string { return "amd64" }
