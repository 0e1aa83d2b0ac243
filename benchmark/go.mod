// The benchmark is a module of its own so that it builds from its own build
// file; it reaches the program through the replace below and, because its
// module path is rooted under skalla/, may import skalla/internal/... .
module skalla/benchmark

go 1.22

require skalla v0.0.0

replace skalla => ../
