package ftv

// OracleGraph exposes the layout oracle's random graph of one of the four
// kinds (bit 0 directed, bit 1 edge-labelled) to the external tests.
var OracleGraph = oracleGraph
