package tornado

// PrecompiledNames lists the shipped graphs for the tests; production
// code reaches them by name through LoadPrecompiled.
var PrecompiledNames = precompiledNames
