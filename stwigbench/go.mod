// stwigbench is a module of its own so the benchmark builds from its own
// directory; the module path keeps it under stwig/ so it may import the
// daemon's internal packages for the oracle and the in-process trace depths.
module stwig/stwigbench

go 1.23

require stwig v0.0.0

replace stwig => ../
