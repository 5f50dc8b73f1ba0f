package shuffle

// FoldBytes exposes foldBytes to the package's external tests.
const FoldBytes = foldBytes
