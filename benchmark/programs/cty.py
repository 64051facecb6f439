import lazyfatpandas.pandas as pd
pd.analyze()
cities = pd.read_csv('cty.csv')
countries = pd.read_csv('cty_countries.csv')
m = cities.merge(countries, on=['country_code'], how='inner')
m = m[m.population > 100000]
g = m.groupby(['continent'])['population'].sum()
print(g)
