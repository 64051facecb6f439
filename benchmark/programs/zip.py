import lazyfatpandas.pandas as pd
pd.analyze()
df = pd.read_csv('zip.csv')
df['density'] = df.population / df.land_area
df = df[df.population > 5000]
top = df.sort_values(['median_income'], ascending=False)
report = top[['zip', 'state', 'median_income', 'density']]
print(report.head(10))
n = len(df)
print(f'qualifying zips: {n}')
